package main

import "fmt"

// perLayer lists the metrics of single layers, which a traced run
// prints. They have no bound: they say where an end-to-end number came
// from. README.md maps each to the end-to-end metric and workload it
// should move.
var perLayer = []metricDef{
	// Spans around the session API and the benchmark's transport, on
	// the workload itself.
	{Name: "core.tx_self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "core.rx_self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "core.tx_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.rx_self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "pipe.tx_wait_ratio", Unit: "ratio", Better: "lower"},
	{Name: "pipe.rx_wait_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.self_ns_per_byte", Unit: "ns/B", Better: "lower"},
	// Exact counts at the transport boundary.
	{Name: "core.transport_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.reverse_writes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.wire_bytes_per_app_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.goroutines_after_run", Unit: "count", Better: "lower"},
	// What tcpnet and the link counted during the workload (zero over
	// the pipe, where they carry nothing).
	{Name: "tcpnet.segments_per_MB", Unit: "count", Better: "lower"},
	{Name: "tcpnet.retransmits", Unit: "count", Better: "lower"},
	{Name: "tcpnet.dup_acks_rcvd", Unit: "count", Better: "lower"},
	{Name: "netsim.link_drops", Unit: "count", Better: "lower"},
	{Name: "netsim.queue_high_water_bytes", Unit: "B", Better: "lower"},
	// Phases of a fetch operation over the pipe.
	{Name: "core.connect_us", Unit: "us", Better: "lower"},
	{Name: "core.handshake_us", Unit: "us", Better: "lower"},
	{Name: "core.request_to_first_byte_us", Unit: "us", Better: "lower"},
	{Name: "core.response_us", Unit: "us", Better: "lower"},
	{Name: "core.close_us", Unit: "us", Better: "lower"},
	{Name: "core.fetch_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.handshake_over_tls13_us", Unit: "us", Better: "lower"},
	// Layer drives.
	{Name: "tls13.seal_16k_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tls13.open_16k_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tls13.open_16k_default_ctx_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tls13.trial_open_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tls13.seal_batch4_16k_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tls13.open_batch_16k_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tls13.seal_1k_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "tls13.open_1k_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "tls13.allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "tls13.handshake_full_us", Unit: "us", Better: "lower"},
	{Name: "tls13.handshake_full_cpu_us", Unit: "us", Better: "lower"},
	{Name: "tls13.handshake_full_allocs", Unit: "count", Better: "lower"},
	{Name: "tls13.handshake_psk_us", Unit: "us", Better: "lower"},
	{Name: "record.stream_chunk_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "record.control_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "record.hello_ext_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "record.allocs_per_chunk", Unit: "count", Better: "lower"},
	{Name: "tcpnet.bulk_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "tcpnet.bulk_allocs_per_segment", Unit: "count", Better: "lower"},
	{Name: "netsim.link_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "wire.segment_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "ring.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "timingwheel.rearm_ns", Unit: "ns", Better: "lower"},
	{Name: "timingwheel.advance_ns_per_timer", Unit: "ns", Better: "lower"},
	{Name: "bufpool.get_put_ns", Unit: "ns", Better: "lower"},
	{Name: "telemetry.flight_record_ns", Unit: "ns", Better: "lower"},
	// Ledger and self-cost.
	{Name: "ledger.cpu_ns_per_byte", Unit: "ns/B", Better: "lower"},
	{Name: "ledger.explained_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ledger.tls13_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "proc.peak_rss_MB", Unit: "MB", Better: "lower"},
}

// layersFromWorkload turns the traced window of the workload into the
// span-derived metrics and the transport-boundary counts.
func (res *result) layersFromWorkload(r *run, untraced, traced *window, goroutines, baseline int) {
	tr := r.tr
	bytes, ops := float64(traced.bytes), float64(traced.ops)
	tx := float64(tr.self(spanStreamWrite))
	rx := float64(tr.self(spanRxBusy))
	res.set("core.tx_self_ns_per_byte", tx/bytes)
	res.set("core.rx_self_ns_per_byte", rx/bytes)
	res.set("core.tx_self_us_per_op", us(tx)/ops)
	res.set("core.rx_self_us_per_op", us(rx)/ops)

	// Which side of the pipe waited: a writer blocked on a full buffer
	// means the receiving side is the bottleneck, a reader blocked on
	// an empty one means the sending side is.
	res.set("pipe.tx_wait_ratio", float64(traced.tc.pipeWriterWait)/float64(traced.wall))
	res.set("pipe.rx_wait_ratio", float64(traced.tc.pipeReaderWait)/float64(traced.wall))

	// What the harness itself adds to cpu_ns_per_byte: comparing the
	// delivered bytes and, over the pipe, copying them in and out of it.
	// Over tcpnet the transport spans are tcpnet's own cost, not ours.
	harness := float64(tr.self(spanVerify))
	if r.world.net == nil { // over the pipe
		harness += float64(tr.self(spanTransportWrite) + tr.self(spanTransportRead))
	}
	res.set("harness.self_ns_per_byte", harness/bytes)

	res.set("core.transport_writes_per_op", float64(traced.tc.writes)/ops)
	res.set("core.reverse_writes_per_op", float64(traced.tc.writes-traced.tc.dataWrites)/ops)
	res.set("core.wire_bytes_per_app_byte", float64(traced.tc.writeBytes)/bytes)

	// Tail latency of the workload's operations, spans on: named and
	// reported, not gated (see the end-to-end table).
	res.set("core.op_p99_us", us(traced.hist.quantile(0.99)))

	res.set("core.goroutines_after_run", float64(goroutines))
	if goroutines > baseline {
		res.notes = append(res.notes, fmt.Sprintf(
			"FLAG: %d goroutines after the run, %d before it", goroutines, baseline))
	}

	res.set("tcpnet.segments_per_MB", float64(traced.tc.segsSent)/(bytes/1e6))
	res.set("tcpnet.retransmits", float64(traced.tc.retransmits))
	res.set("tcpnet.dup_acks_rcvd", float64(traced.tc.dupAcks))
	res.set("netsim.link_drops", float64(traced.tc.linkDrops))
	res.set("netsim.queue_high_water_bytes", float64(traced.tc.queueHighWater))
	if traced.tc.retransmits != 0 || traced.tc.linkDrops != 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"FLAG: %d retransmits and %d link drops on a lossless link",
			traced.tc.retransmits, traced.tc.linkDrops))
	}

	// The share of cpu_ns_per_byte the spans account for. What is left
	// is below the transport boundary (all of tcpnet and netsim, on the
	// netsim workload), in Stream.Read, or in the runtime.
	res.set("ledger.explained_ratio", (tx+rx+harness)/float64(traced.cpu))
	res.set("trace.overhead_ratio", median(traced.bytesPerSec)/median(untraced.bytesPerSec))
	res.set("ledger.cpu_ns_per_byte", float64(traced.cpu)/bytes)
	res.set("untraced.cpu_ns_per_byte", float64(untraced.cpu)/float64(untraced.bytes)) // diagnostic
}

// layersFromFetch prices the phases of a fetch operation. On
// fetch_pipe_16k they come from the workload's own traced window; on
// the other workloads from a short traced fetch segment over the pipe,
// so every traced run reports them.
func (res *result) layersFromFetch(r *run, w workload, traced *window, mon *monitor) {
	f, ok := w.(*fetch)
	hist := &traced.hist
	if !ok {
		cfg := r.cfg
		cfg.workload = "fetch_pipe_16k"
		cfg.warmup, cfg.measure, cfg.traced = cfg.traced/10, 0, cfg.traced/5
		r2 := &run{cfg: cfg, in: r.in, tr: newTracer()}
		mon.cur.Store(r2)
		defer mon.cur.Store(r)
		f = &fetch{}
		if err := f.setup(r2); err != nil {
			r.fail("fetch segment: set-up: %v", err)
			f.teardown()
			return
		}
		_, win := r2.loop(f)
		if err := f.finish(r2); err != nil {
			r.fail("fetch segment: %v", err)
		}
		f.teardown()
		r2.failMu.Lock()
		failures := r2.failures
		r2.failMu.Unlock()
		for _, msg := range failures {
			r.fail("fetch segment: %s", msg)
		}
		if win == nil || win.ops == 0 {
			r.fail("fetch segment: nothing measured")
			return
		}
		hist = &win.hist
	}
	for _, ph := range []struct {
		name spanName
		key  string
	}{
		{spanConnect, "core.connect_us"},
		{spanHandshake, "core.handshake_us"},
		{spanFirstByte, "core.request_to_first_byte_us"},
		{spanResponse, "core.response_us"},
		{spanClose, "core.close_us"},
	} {
		res.set(ph.key, us(f.phases[ph.name].quantile(0.5)))
	}
	res.set("core.fetch_p99_us", us(hist.quantile(0.99)))
	res.set("core.fetch_samples", float64(hist.n))
}

// ledger derives the cross-layer ratios once spans and drives are in.
func (res *result) ledger() {
	v := res.values
	// What the session layer adds to a bare TLS handshake.
	res.set("core.handshake_over_tls13_us", v["core.handshake_us"]-v["tls13.handshake_full_us"])
	// How much of the session layer's self time is the record layer's
	// sealing and opening.
	res.set("ledger.tls13_share", (v["tls13.seal_batch4_16k_ns_per_byte"]+v["tls13.open_batch_16k_ns_per_byte"])/
		(v["core.tx_self_ns_per_byte"]+v["core.rx_self_ns_per_byte"]))
}
