package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "none (not built in a git checkout)"
	}
	return rev + dirty
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in path order) so a run identifies the code it measured even
// where no VCS revision exists. Build and output directories are skipped.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsKind names the filesystem holding dir, from its statfs magic number.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("fs-0x%x", uint64(st.Type))
	}
}

// residentMB is the process's current resident set in MiB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuStat is the machine-wide CPU time split of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		if i >= 8 { // user nice system idle iowait irq softirq steal
			break
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// probe watches one timed phase: the process's peak resident set (sampled
// every rssEvery), its CPU time, and the share of the machine's CPU time
// the hypervisor stole, which says how noisy the phase's timings are.
type probe struct {
	stop, done chan struct{}
	peakMB     float64 // owned by the sampler until done closes
	samples    int     // likewise
	frozen     bool
	cpu0       time.Duration
	stat0      cpuStat
}

// probeResult is what a probe saw.
type probeResult struct {
	cpu        time.Duration
	peakMB     float64
	rssSamples int
	stealPct   float64
}

const rssEvery = 50 * time.Millisecond

// startProbe first returns the garbage of input generation and set-up to
// the OS, so the resident peak describes the timed phase alone.
func startProbe() *probe {
	debug.FreeOSMemory()
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		p.peakMB = max(p.peakMB, residentMB())
		p.samples++
	}
	sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	p.stat0 = readCPUStat()
	p.cpu0 = cpuTime()
	return p
}

// freezePeak stops sampling the resident set, so the peak covers only the
// work done so far; finish keeps that peak.
func (p *probe) freezePeak() {
	if p.frozen {
		return
	}
	p.frozen = true
	close(p.stop)
	<-p.done
}

// finish stops the probe and waits for its sampler.
func (p *probe) finish() probeResult {
	r := probeResult{cpu: cpuTime() - p.cpu0}
	st := readCPUStat()
	p.freezePeak()
	r.peakMB, r.rssSamples = p.peakMB, p.samples
	if dt := st.total - p.stat0.total; dt > 0 {
		r.stealPct = 100 * float64(st.steal-p.stat0.steal) / float64(dt)
	}
	return r
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupTimes collects the wall and process CPU time of repeated set-ups.
// setup_s is the median CPU time: it shows work moved into set-up as
// surely as wall time does, without the hypervisor's steal time, which on
// a shared host moves the wall time of the same set-up by 2x.
type setupTimes struct{ wall, cpu []float64 }

// measure runs one set-up and records its times. It starts from a
// collected heap, so no set-up pays for the garbage of the one before.
func (t *setupTimes) measure(setUp func() error) error {
	runtime.GC()
	w0, c0 := time.Now(), cpuTime()
	err := setUp()
	t.cpu = append(t.cpu, (cpuTime() - c0).Seconds())
	t.wall = append(t.wall, time.Since(w0).Seconds())
	return err
}

// add reports setup_s and, for reference, the median wall time.
func (t *setupTimes) add(rep *report, what string) {
	rep.add("setup_s", median(t.cpu), "s", len(t.cpu), "median process CPU time of one set-up: "+what)
	rep.add("setup_wall_s", median(t.wall), "s", len(t.wall), "median wall time of one set-up")
}

// baseEnv is the part of the environment record every report carries.
func baseEnv(w *workload, o options) []kv {
	return []kv{
		{"workload", w.name},
		{"seed", fmt.Sprint(o.seed)},
		{"seconds", fmt.Sprint(o.seconds)},
		{"trace", fmt.Sprint(btoi(o.traced))},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"cpu", cpuModel()},
		{"go", runtime.Version()},
		{"commit", commit()},
		{"source_sha256", sourceDigest(o.root)},
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
