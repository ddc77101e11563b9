package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"unsafe"
)

// The benchmark usually runs on a shared virtual machine, whose speed is
// not its own. A neighbour on the same cores or caches slows every
// instruction for minutes at a time, and the hypervisor now and then
// withholds whole CPUs ("steal", 15 to 50% of the host's CPU time in a
// storm, under 1% in a quiet spell on a 2-vCPU VM). Both move every
// wall-clock and CPU figure by a factor the code under test has no part
// in, so each round takes two readings of the host:
//
//   - a speed probe: the CPU time per step of a fixed, allocation-free
//     kernel on nproc locked threads, which slows as the host does;
//   - the round's steal share of the host's CPU time, from /proc/stat.
//
// The end-to-end wall-clock and CPU metrics are expressed at the speed
// of a reference host (hostScale), and the medians over rounds leave
// out the rounds a steal storm spoiled (cleanRounds). The run record
// keeps every figure as measured. On a 2-vCPU VM, in two ten-run sets
// per workload taken over an hour with several storms, scaling lowered
// the interquartile range across runs, over the median, of each of the
// three metrics on every workload: from 0.13-0.39 to 0.03-0.24.

const (
	// maxStealShare is the steal share above which a round is left out.
	maxStealShare = 0.03
	// refProbeNs is the probe's CPU time per step on the reference
	// host, a 2-vCPU VM in a quiet spell.
	refProbeNs = 23.0
	// probeSteps is one probe's length, about 5 ms per thread.
	probeSteps = 1 << 18
	// probeTableWords sizes each thread's table at 1 MiB, larger than
	// a core's private caches, so the probe also slows when a
	// neighbour contends for the shared cache and memory.
	probeTableWords = 1 << 17
)

// hostScale is how much more work the host does per wall-clock second
// than the reference host: its speed relative to the reference, times
// the share of its CPU time the hypervisor did not steal. Throughput
// is divided by it and latency multiplied; CPU time per op, which
// stolen time does not inflate, is multiplied by the speed alone.
type hostScale struct{ speed, avail float64 }

func (h hostScale) wall() float64 { return h.speed * h.avail }

// speedProbe runs the probe kernel on nproc locked threads at once.
type speedProbe struct{ tables [][]uint64 }

func newSpeedProbe() *speedProbe {
	p := &speedProbe{}
	for i := 0; i < runtime.NumCPU(); i++ {
		p.tables = append(p.tables, make([]uint64, probeTableWords))
	}
	return p
}

// read returns the mean CPU time per kernel step over the threads, in
// ns. Thread CPU time leaves out the time a thread waits, for the
// hypervisor or for another goroutine.
func (p *speedProbe) read() (float64, error) {
	cpu := make([]int64, len(p.tables))
	errs := make([]error, len(p.tables))
	var wg sync.WaitGroup
	for i := range p.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start, err := threadCPU()
			if err != nil {
				errs[i] = err
				return
			}
			probeKernel(p.tables[i], uint64(i+1))
			end, err := threadCPU()
			cpu[i], errs[i] = end-start, err
		}(i)
	}
	wg.Wait()
	var total int64
	for i := range cpu {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += cpu[i]
	}
	return float64(total) / float64(len(cpu)) / probeSteps, nil
}

// probeKernel mixes arithmetic with dependent random reads and writes
// over t; the last write keeps the loop from being optimised away.
func probeKernel(t []uint64, x uint64) {
	mask := uint64(len(t) - 1)
	for i := uint64(0); i < probeSteps; i++ {
		x = mix64(x + i)
		j := x & mask
		t[j] += x
		x ^= t[(j*7+1)&mask]
	}
	t[0] = x
}

// threadCPU is the calling thread's CPU time in ns.
func threadCPU() (int64, error) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, os.NewSyscallError("clock_gettime", errno)
	}
	return ts.Nano(), nil
}

// cpuTimes is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of the host's CPU time stolen since t0.
func stealShare(t0, t1 cpuTimes) float64 {
	if t1.total <= t0.total {
		return 0
	}
	return (t1.steal - t0.steal) / (t1.total - t0.total)
}

// cleanRounds marks the rounds whose steal share is at most
// maxStealShare. When fewer than half are, a storm covers most of the
// run, and the half of the rounds with the least steal are kept.
func cleanRounds(steal []float64) []bool {
	keep := make([]bool, len(steal))
	n := 0
	for i, s := range steal {
		keep[i] = s <= maxStealShare
		if keep[i] {
			n++
		}
	}
	if half := (len(steal) + 1) / 2; n < half {
		order := make([]int, len(steal))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
		for _, i := range order[:half] {
			keep[i] = true
		}
	}
	return keep
}

// medianOf is the median of the values whose round is kept.
func medianOf(v []float64, keep []bool) float64 {
	var s []float64
	for i, x := range v {
		if keep[i] {
			s = append(s, x)
		}
	}
	return median(s)
}

// meanOf is the mean of the values whose round is kept.
func meanOf(v []float64, keep []bool) float64 {
	var sum float64
	n := 0
	for i, x := range v {
		if keep[i] {
			sum += x
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
