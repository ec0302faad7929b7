package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's exported functions and around the benchmark's own
// transport; nothing inside the program under test is instrumented.
//
// A span is {name, start, end, parent, op_id}. Every span updates the
// per-name aggregates (count, total time, time covered by children),
// from which a layer's self time is its total minus its children. The
// first spanBufCap spans are also kept raw, in a buffer allocated
// before the run, and written as JSON at exit for inspection.

type spanName uint8

const (
	spanNone spanName = iota
	// Session API calls made by the workload's own goroutines.
	spanStreamWrite // Stream.Write: framing, sealing, replay copy, transport write
	spanStreamRead  // Stream.Read: mostly waiting for data; kept for the timeline
	spanVerify      // bytes.Equal of delivered bytes (harness cost)
	// Transport calls made by the program under test.
	spanTransportWrite // one Write on the benchmark's transport
	spanTransportRead  // one Read on the benchmark's transport (copy + wait)
	// The interval from a transport Read returning to the next Read
	// call on the same connection: the reader goroutine (handshake
	// worker, then pathConn.readLoop) is busy opening and dispatching.
	spanRxBusy
	// Fetch phases.
	spanConnect
	spanHandshake
	spanRequest
	spanFirstByte
	spanResponse
	spanClose
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanNone:           "none",
	spanStreamWrite:    "core.stream_write",
	spanStreamRead:     "core.stream_read",
	spanVerify:         "harness.verify",
	spanTransportWrite: "transport.write",
	spanTransportRead:  "transport.read",
	spanRxBusy:         "core.rx_busy",
	spanConnect:        "core.connect",
	spanHandshake:      "core.handshake",
	spanRequest:        "core.request",
	spanFirstByte:      "core.request_to_first_byte",
	spanResponse:       "core.response",
	spanClose:          "core.close",
}

// spanBufCap bounds the raw spans kept: a thousand operations or more
// of the streaming workloads, two hundred fetches. It is small on
// purpose. At 40 B a span the buffer is 640 KiB of live heap; a buffer
// of megabytes would lift the heap above the collector's 4 MB floor,
// halve the GC frequency, and make the traced run measure a cheaper
// program than the untraced one (fetch_pipe_16k cost a third less CPU
// per operation with a 5 MB buffer).
const spanBufCap = 1 << 14

type rawSpan struct {
	name   spanName
	start  int64 // ns since the tracer was created
	end    int64
	parent int32 // index of the parent span in the buffer, -1 if none
	op     int64
}

// spanAgg is the always-on per-name aggregate.
type spanAgg struct {
	count   atomic.Int64
	total   atomic.Int64 // ns inside spans of this name
	child   atomic.Int64 // ns of that covered by child spans
	waiting atomic.Int64 // ns of that spent blocked (reported by the transport)
}

// spanRef identifies an open span to its children: packed so that an
// endpoint can publish "the span in progress here" in one atomic word.
// Zero means none.
type spanRef uint64

func makeRef(idx int32, name spanName) spanRef {
	return spanRef(uint64(uint32(idx+1))<<8 | uint64(name))
}
func (r spanRef) name() spanName { return spanName(r & 0xff) }
func (r spanRef) index() int32   { return int32(uint32(r>>8)) - 1 }

// span is the handle between begin and end. The zero value is a span
// that was not started (tracing off) and ends as a no-op.
type span struct {
	ref    spanRef
	parent spanName
	start  int64
}

type tracer struct {
	t0   time.Time
	on   atomic.Bool
	op   atomic.Int64 // id of the operation in progress
	agg  [numSpanNames]spanAgg
	buf  []rawSpan
	next atomic.Int64 // spans started; indexes below len(buf) are kept raw
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), buf: make([]rawSpan, spanBufCap)}
}

// enabled is safe on a nil tracer, so untraced runs carry one pointer
// check per call site and nothing else.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// setOp names the operation whose spans follow.
func (t *tracer) setOp(i int64) {
	if t != nil {
		t.op.Store(i)
	}
}

func (t *tracer) begin(name spanName, parent spanRef) span {
	if !t.enabled() {
		return span{}
	}
	now := int64(time.Since(t.t0))
	idx := t.next.Add(1) - 1
	if idx < int64(len(t.buf)) {
		t.buf[idx] = rawSpan{name: name, start: now, parent: parent.index(), op: t.op.Load()}
	} else {
		idx = -1
	}
	return span{ref: makeRef(int32(idx), name), parent: parent.name(), start: now}
}

// end closes the span; waitNs is the part of it the callee reports
// having spent blocked (the pipe's cond.Wait), which is neither self
// time nor a child.
func (t *tracer) end(s span, waitNs int64) int64 {
	if s.ref == 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	d := now - s.start
	a := &t.agg[s.ref.name()]
	a.count.Add(1)
	a.total.Add(d)
	a.waiting.Add(waitNs)
	if s.parent != spanNone {
		t.agg[s.parent].child.Add(d)
	}
	if i := s.ref.index(); i >= 0 {
		t.buf[i].end = now
	}
	return d
}

// self returns the self time of a span name: total minus children minus
// reported waiting.
func (t *tracer) self(name spanName) int64 {
	a := &t.agg[name]
	return a.total.Load() - a.child.Load() - a.waiting.Load()
}

// writeJSON writes the raw spans as one JSON array.
func (t *tracer) writeJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := min(t.next.Load(), int64(len(t.buf)))
	fmt.Fprintf(w, "{\"spans_started\": %d, \"spans_kept\": %d, \"spans\": [\n", t.next.Load(), n)
	for i := int64(0); i < n; i++ {
		s := &t.buf[i]
		sep := ","
		if i == n-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"op_id\":%d}%s\n",
			spanNames[s.name], s.start, s.end, s.parent, s.op, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
