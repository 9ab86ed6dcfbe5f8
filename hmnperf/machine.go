package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// machine records what a result was measured on, so that only like is
// compared with like.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	DataDirFS  string `json:"data_dir_fs"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_fnv64a"`
}

func machineRecord(r *runEnv) machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(r.Work),
		Commit:     commit(r.Root),
		SourceHash: sourceHash(r.Root),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the filesystems a data directory is likely to sit on.
var fsMagic = map[int64]string{
	0xef53:     "ext4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit is the checkout's git commit, when it is a git work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash is FNV-64a over every Go source and go.mod file of the
// checkout, by path order: it identifies the code measured even where
// there is no commit to name.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just drops out of the hash
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := fnv.New64a()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel)
		if f, err := os.Open(p); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
