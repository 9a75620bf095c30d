package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// envBlock records where a report was taken, so two reports are only
// compared knowingly across machines.
type envBlock struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	CacheFS    string `json:"cache_fs"`
	Seed       int64  `json:"seed"`
}

// collectEnv fills the block. cacheDir is where the daemon workloads keep
// the result cache: its filesystem decides what an fsync costs.
func collectEnv(seed int64, cacheDir string) envBlock {
	return envBlock{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		CacheFS:    fsType(cacheDir),
		Seed:       seed,
	}
}

// gitCommit asks git for HEAD; the benchmark also runs from plain source
// checkouts that are not repositories, where it reports "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

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

// fsMagic names the filesystems a cache directory plausibly sits on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// procStatusKB reads one "<key>:  <n> kB" line of /proc/<pid>/status
// (pid 0 = this process). VmHWM is the peak resident set, VmRSS the
// current one.
func procStatusKB(pid int, key string) (int64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = filepath.Join("/proc", fmt.Sprint(pid), "status")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("bench: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			var kb int64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb); err != nil {
				return 0, fmt.Errorf("bench: parse %s of %s: %w", key, path, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("bench: %s has no %s line", path, key)
}
