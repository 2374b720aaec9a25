package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostRecord describes the machine and build a run measured on. The
// commit comes from PERFBENCH_COMMIT (run.py sets it when the tree is a
// git checkout).
func hostRecord() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
	}
}

// rssSampler records the peak resident set size of the process while
// it runs, read from /proc/self/statm.
type rssSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup
	peak  int64 // bytes; written by the sampler goroutine only
}

const rssEvery = 10 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.peak = residentBytes()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-t.C:
				if b := residentBytes(); b > s.peak {
					s.peak = b
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak in MB (10^6 bytes).
func (s *rssSampler) stop() float64 {
	close(s.stopc)
	s.done.Wait()
	if b := residentBytes(); b > s.peak {
		s.peak = b
	}
	return float64(s.peak) / 1e6
}

// residentBytes is the process's current resident set size, or 0 where
// /proc is unavailable.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
