package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostInfo identifies where and on what a run was measured. Results whose
// host blocks differ are never compared.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Rev is the checkout's git commit, or "none" outside a git checkout;
	// Tree is a digest of the Go sources, which identifies the code either
	// way.
	Rev  string `json:"rev"`
	Tree string `json:"tree"`
	Seed int64  `json:"seed"`
}

// collectHost reads the host block for a run rooted at dir.
func collectHost(dir string, seed int64) hostInfo {
	return hostInfo{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Rev:        gitRev(dir),
		Tree:       treeDigest(dir),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev resolves HEAD by reading .git directly, so no process is started
// and nothing outside the checkout is read.
func gitRev(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

// treeDigest hashes every .go and go.mod file under dir, skipping hidden
// directories (build outputs, VCS data), in path order.
func treeDigest(dir string) string {
	var paths []string
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != dir && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(dir, p)
		io.WriteString(h, rel+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's VmHWM in MB (10^6 bytes), NaN when the
// kernel does not report it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return math.NaN()
}

// residentMB is the process's resident set in MB, NaN when the kernel
// does not report it.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return math.NaN()
	}
	return pages * float64(os.Getpagesize()) / 1e6
}

// rssEvery is how often the resident set is sampled during the measured
// phase; peak_rss_mb is the median over windows of rssWindow of the
// largest sample in each.
const (
	rssEvery  = 10 * time.Millisecond
	rssWindow = time.Second
)

// rssSampler samples the resident set from a goroutine of its own.
type rssSampler struct {
	stop, done chan struct{}
	start      time.Time
	at         []time.Duration
	mb         []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.at = append(s.at, time.Since(s.start))
			s.mb = append(s.mb, residentMB())
			select {
			case <-t.C:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// end stops the sampler and returns the largest sample of each full
// window.
func (s *rssSampler) end() []float64 {
	elapsed := time.Since(s.start)
	close(s.stop)
	<-s.done
	return windowMax(s.at, s.mb, rssWindow, elapsed)
}

// windowMax returns, for each full window of length w in elapsed, the
// largest of the values sampled in it.
func windowMax(at []time.Duration, v []float64, w, elapsed time.Duration) []float64 {
	n := int(elapsed / w)
	peaks := make([]float64, n)
	for i, x := range v {
		if k := int(at[i] / w); k < n {
			peaks[k] = max(peaks[k], x)
		}
	}
	return peaks
}
