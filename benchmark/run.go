package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// runConfig fixes the conditions of one workload run.
type runConfig struct {
	workload string
	seed     int64
	warmup   time.Duration // run before measuring, so pools and caches are filled
	measure  time.Duration // the measured window (tracing off)
	traced   time.Duration // a second window with spans on; 0 in an untraced run
	setups   int           // how many times set-up is repeated and timed
	stall    time.Duration // no progress for this long ends the run as failed
	slice    time.Duration // every metric is the median of slices this long
	drives   float64       // traced run: scale of the layer drives' iteration counts (1 = full)
}

// workload is one closed-loop traffic pattern: one client, one session
// at a time, the next operation sent only when the previous completed.
type workload interface {
	// setup builds the world (certificate, topology, listener, first
	// session) and completes one verified operation.
	setup(r *run) error
	// op performs operation i and verifies what it delivered.
	op(r *run, i int64) error
	// finish drains what is in flight and checks the totals.
	finish(r *run) error
	// teardown closes sessions, listener and world.
	teardown()
}

// run is the state shared by a workload, the operation loop and the
// monitor.
type run struct {
	cfg   runConfig
	in    *inputs
	tr    *tracer // nil in an untraced run
	world *world  // the transport of the workload set up last

	// Progress, read by the monitor.
	ops      atomic.Int64 // operations completed and verified
	bytes    atomic.Int64 // application bytes delivered and verified
	progress atomic.Int64 // other forward steps (set-up, layer drives)

	attempted atomic.Int64
	failed    atomic.Int64
	aborted   atomic.Bool
	failMu    sync.Mutex
	failures  []string

	hist histogram // operation latency of the slice in progress
}

// fail records a failed operation. The first failure ends the run: a
// benchmark is only meaningful on a workload where nothing fails.
func (r *run) fail(format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	r.failMu.Lock()
	r.failures = append(r.failures, err.Error())
	r.failMu.Unlock()
	r.aborted.Store(true)
	return err
}

// window is what one measured interval of the operation loop yields:
// totals, and one sliceStat per slice of it. A metric is the median of
// its per-slice values, so a few disturbed seconds (a noisy neighbour,
// a burst of GC) do not move it.
type window struct {
	wall    time.Duration
	cpu     time.Duration // process user+sys over the window
	mallocs uint64
	ops     int64
	bytes   int64
	hist    histogram // every operation of the window
	tc      transportCounts

	// One value per slice.
	bytesPerSec []float64 // verified application bytes per wall second
	cpuPerByte  []float64 // ns
	cpuPerOp    []float64 // ns
	p50         []float64 // median operation latency, ns
}

// mark is a reading of the run's counters at one instant.
type mark struct {
	t     time.Time
	cpu   time.Duration
	ops   int64
	bytes int64
}

func (r *run) mark(now time.Time) mark {
	return mark{t: now, cpu: processCPU(), ops: r.ops.Load(), bytes: r.bytes.Load()}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	return ru
}

// processCPU is the user+sys CPU time of the process so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measure runs operations until d has passed and returns the window.
// The operation loop cuts the slices itself, at the first operation
// that ends after a slice boundary, so the latency histogram needs no
// lock; *next is the index of the next operation. It returns a nil
// window if an operation failed, and when the last operation ended.
func (r *run) measure(w workload, d time.Duration, start time.Time, next *int64) (*window, time.Time) {
	win := &window{}
	m0 := mallocs()
	tc0 := r.world.counts()
	first := r.mark(start)
	slice := first
	r.hist.reset()
	t := start
	end := start.Add(d)
	sliceEnd := start.Add(r.cfg.slice)
	for t.Before(end) {
		if r.aborted.Load() {
			return nil, t
		}
		r.attempted.Add(1)
		r.tr.setOp(*next)
		if err := w.op(r, *next); err != nil {
			r.failed.Add(1)
			r.fail("op %d: %v", *next, err)
			return nil, t
		}
		now := time.Now()
		r.ops.Add(1)
		r.hist.record(int64(now.Sub(t)))
		t = now
		*next++
		if !t.Before(sliceEnd) || !t.Before(end) {
			cur := r.mark(t)
			// The stub between the last full slice and the end of the
			// window is too short to stand beside the others.
			if dt := cur.t.Sub(slice.t); dt >= r.cfg.slice/2 && cur.bytes > slice.bytes && cur.ops > slice.ops {
				cpu := float64(cur.cpu - slice.cpu)
				win.bytesPerSec = append(win.bytesPerSec, float64(cur.bytes-slice.bytes)/dt.Seconds())
				win.cpuPerByte = append(win.cpuPerByte, cpu/float64(cur.bytes-slice.bytes))
				win.cpuPerOp = append(win.cpuPerOp, cpu/float64(cur.ops-slice.ops))
				win.p50 = append(win.p50, r.hist.quantile(0.50))
			}
			win.hist.merge(&r.hist)
			r.hist.reset()
			slice = cur
			sliceEnd = sliceEnd.Add(r.cfg.slice)
		}
	}
	win.wall = slice.t.Sub(first.t)
	win.cpu = slice.cpu - first.cpu
	win.ops = slice.ops - first.ops
	win.bytes = slice.bytes - first.bytes
	win.mallocs = mallocs() - m0
	win.tc = r.world.counts().since(tc0)
	return win, t
}

// loop runs the closed loop through its phases: warm-up, the measured
// window, and in a traced run a second window with spans on. It returns
// the windows it measured.
func (r *run) loop(w workload) (untraced, traced *window) {
	var next int64 = 1 // operation 0 was set-up's
	warm, t := r.measure(w, r.cfg.warmup, time.Now(), &next)
	if warm == nil {
		return nil, nil
	}
	if untraced, t = r.measure(w, r.cfg.measure, t, &next); untraced == nil || r.cfg.traced == 0 {
		return untraced, nil
	}
	r.tr.on.Store(true)
	traced, _ = r.measure(w, r.cfg.traced, t, &next)
	r.tr.on.Store(false)
	return untraced, traced
}

// monitor is the progress watchdog, the process's one background
// goroutine: if no counter of the run in progress advances for stall,
// it dumps every goroutine to stderr, marks the operation in flight
// failed and calls onStall, which ends the workload. A hang is then a
// reported failure, not a stuck pipeline.
type monitor struct {
	cur     atomic.Pointer[run]
	stall   time.Duration
	onStall func(r *run)
	stop    chan struct{}
	done    chan struct{}
}

func startMonitor(r *run, onStall func(*run)) *monitor {
	m := &monitor{stall: r.cfg.stall, onStall: onStall,
		stop: make(chan struct{}), done: make(chan struct{})}
	m.cur.Store(r)
	go m.loop()
	return m
}

func (m *monitor) close() {
	close(m.stop)
	<-m.done
}

func (m *monitor) loop() {
	defer close(m.done)
	tk := time.NewTicker(20 * time.Millisecond)
	defer tk.Stop()
	var r *run
	var last int64
	var lastMove time.Time
	for {
		select {
		case <-m.stop:
			return
		case <-tk.C:
		}
		now := time.Now()
		if cur := m.cur.Load(); cur != r {
			r, last, lastMove = cur, -1, now
		}
		if p := r.ops.Load() + r.bytes.Load() + r.progress.Load(); p != last {
			last, lastMove = p, now
		} else if now.Sub(lastMove) >= m.stall && !r.aborted.Load() {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			fmt.Fprintf(os.Stderr, "benchmark: %s: no progress for %v; goroutines:\n%s\n",
				r.cfg.workload, m.stall, buf[:n])
			r.fail("watchdog: no progress for %v", m.stall)
			m.onStall(r)
			lastMove = now
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// waitGoroutines waits for the goroutine count to come back to at most
// want (teardown is asynchronous) and returns the count it settled at.
func waitGoroutines(want int, patience time.Duration) int {
	deadline := time.Now().Add(patience)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}
