// Package sentinels stands in for internal/shard under testdata: a
// second sentinel source beside the core/cluster stand-in, as the
// federation front end imports both.
package sentinels

import "errors"

// ErrNoShard marks an admission no shard fits.
var ErrNoShard = errors.New("fed: no shard fits")

// ErrUnknownTenant marks a tenant that was never opened.
var ErrUnknownTenant = errors.New("fed: unknown tenant")
