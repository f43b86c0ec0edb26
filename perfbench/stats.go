package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// beyond counts the samples of sorted strictly above v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// minOf runs fn reps times and returns its shortest duration: the replay
// times each idempotent layer call this way, so one preemption does not
// land in a layer's number.
func minOf(reps int, fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// loopTimes is one reading of the fixed integer loops in envRecord.
type loopTimes struct {
	OneThreadMs float64 `json:"one_thread_ms"`
	TwoThreadMs float64 `json:"two_thread_ms"`
}

// envRecord describes the machine and build of one run. The loop times
// make a slow or absent second vCPU visible; they are recorded only and
// never used to scale, drop or repeat a sample.
type envRecord struct {
	Source     string    `json:"source"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	LoopStart  loopTimes `json:"loop_start"`
	LoopEnd    loopTimes `json:"loop_end"`
}

var loopSink uint64

const loopIters = 40_000_000

func intLoop() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < loopIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// timeLoops times the integer loop on one goroutine, then on two at once.
// With two working vCPUs both take about the same time; a two-thread time
// near twice the one-thread time means the second vCPU was not there.
func timeLoops() loopTimes {
	t := time.Now()
	atomic.AddUint64(&loopSink, intLoop())
	one := time.Since(t)
	t = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddUint64(&loopSink, intLoop())
		}()
	}
	wg.Wait()
	two := time.Since(t)
	return loopTimes{OneThreadMs: ms(one), TwoThreadMs: ms(two)}
}

// sourceID names the code under test: the VCS revision stamped into the
// binary when there is one, otherwise a digest of the checkout's Go
// sources (benchmark checkouts are plain file trees, not repositories).
func sourceID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func newEnvRecord() envRecord {
	return envRecord{
		Source:     sourceID(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LoopStart:  timeLoops(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
