// Package merged serves two sentinel sources from one table: the table
// must cover the sentinels of both, and neither source's sentinels may
// be compared inline.
package merged

import (
	"errors"
	"net/http"

	fed "repro/internal/lint/testdata/src/sentinelhttp/fed/sentinels"
	"repro/internal/lint/testdata/src/sentinelhttp/sentinels"
)

// statusOf covers every first-source sentinel but misses one of the
// second source's.
//
//hmn:sentineltable
func statusOf(err error) int { // want `sentinel sentinels\.ErrUnknownTenant has no HTTP status`
	switch {
	case errors.Is(err, sentinels.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, sentinels.ErrConflict), errors.Is(err, fed.ErrNoShard):
		return http.StatusConflict
	case errors.Is(err, sentinels.ErrTooBig):
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusInternalServerError
	}
}

// handle compares a second-source sentinel inline.
func handle(err error) int {
	if errors.Is(err, fed.ErrUnknownTenant) { // want `sentinel ErrUnknownTenant compared outside the //hmn:sentineltable function statusOf`
		return http.StatusNotFound
	}
	return statusOf(err)
}
