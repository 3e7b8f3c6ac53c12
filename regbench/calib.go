package main

import (
	"sort"
	"time"
)

// The machine this benchmark was built on is a two-vCPU share of a busy
// host, and its speed moves by up to a half within seconds and for
// minutes at a time as the neighbours' load comes and goes: the same
// 100k-instruction run took 58 ms in one second and 100 ms a few seconds
// later, and every run-level statistic of raw host time (median, mean,
// fastest repeat) moved with the phases a run happened to meet.
//
// So every host-time metric is reported at a fixed reference speed. Right
// around each timed operation the benchmark times refKernel, a fixed
// table-driven loop with data-dependent branches over a 4 MiB table (the
// footprint of the largest benchmark program), and scales the
// operation's time by refNominal over the kernel's time. On a host where
// the kernel takes refNominal, the scaled figures are plain host seconds;
// elsewhere they are the seconds the operation would take on such a host,
// as far as the program slows down as the kernel does. The kernel is the
// benchmark's own code, so no change to the program moves it, and
// ref_kernel_ms records how fast the host ran it.
const refNominal = 3 * time.Millisecond

// refTable is the kernel's working set: 4 MiB of seeded words.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<19)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

var refSink uint64

// refKernel runs the reference loop once: about 3 ms on the machine the
// benchmark was tuned on. Each run starts from the same generator state;
// the table drifts between runs, but its words stay uniformly random.
func refKernel() {
	x := uint64(88172645463325252)
	var acc uint64
	tbl := refTable
	mask := uint64(len(tbl) - 1)
	for i := 0; i < 250_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & mask
		v := tbl[k]
		switch v & 3 {
		case 0:
			acc += v >> 2
			tbl[k] = v + x
		case 1:
			acc ^= v
		default:
			tbl[(k+1)&mask] ^= acc
		}
	}
	refSink += acc
}

// refTime returns the kernel's current time in seconds: the median of
// three runs, so one interrupted run does not count.
func refTime() float64 {
	var ts [3]float64
	for i := range ts {
		t0 := time.Now()
		refKernel()
		ts[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(ts[:])
	return ts[1]
}

// atRef scales a host time measured between two kernel timings to the
// reference speed.
func atRef(t, refBefore, refAfter float64) float64 {
	return t * refNominal.Seconds() / ((refBefore + refAfter) / 2)
}
