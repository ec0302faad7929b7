package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// sessionSeq numbers sessions process-wide so each gets a distinct
// metrics namespace (session.<n>.*) even when several share a registry
// (a chaos run has at least a client and a server session).
var sessionSeq atomic.Uint32

// sessionCounters aggregates per-session activity for the registry.
// Trace events answer "what happened when"; these answer "how much".
type sessionCounters struct {
	recordsSent  atomic.Uint64
	recordsRcvd  atomic.Uint64
	bytesSent    atomic.Uint64
	bytesRcvd    atomic.Uint64
	ctrlSent     atomic.Uint64
	ctrlRcvd     atomic.Uint64
	failovers    atomic.Uint64
	degraded     atomic.Uint64
	replays      atomic.Uint64
	capsDegraded atomic.Uint64
	stalls       atomic.Uint64
}

// trace returns the session's tracer; nil (a valid disabled tracer)
// when the config carries none.
func (s *Session) trace() *telemetry.Tracer { return s.cfg.Tracer }

// emit stamps and fans out one session-level event: always into the
// per-session flight recorder (one mutex and a struct copy, no
// allocation), and into the configured tracer when this session was
// selected for full-fidelity tracing (Config.TraceSampleRate).
func (s *Session) emit(ev telemetry.Event) {
	tr := s.trace()
	if s.flight == nil && (tr == nil || !s.traceSampled) {
		return
	}
	if ev.Time == 0 {
		if tr != nil {
			ev.Time = tr.Now()
		} else {
			ev.Time = time.Since(s.startWall)
		}
	}
	if ev.EP == "" {
		if ep := tr.Endpoint(); ep != "" {
			ev.EP = ep
		} else if s.role == RoleServer {
			ev.EP = "server"
		} else {
			ev.EP = "client"
		}
	}
	s.flight.Record(ev)
	if s.traceSampled {
		tr.Emit(ev)
	}
}

// tracing reports whether any event consumer exists; emit sites with
// expensive arguments (string formatting, per-frame loops) guard on it.
func (s *Session) tracing() bool {
	return s.flight != nil || (s.traceSampled && s.trace().Enabled())
}

// SessionDump is the flight recorder's structured artifact: the last N
// events of one session, captured at an anomaly (or on demand).
type SessionDump struct {
	Seq     uint32 // process-wide session number
	ConnID  uint32 // TCPLS session identifier (0 before the handshake)
	Role    Role
	Reason  string            // what triggered the dump
	Time    time.Duration     // trace-clock time of capture
	Dropped uint64            // events that fell off the ring before capture
	Events  []telemetry.Event // oldest first
}

// WriteJSONL writes the dump's events as JSON lines — the format file
// sinks write, so tcplstrace pretty/qlog read the artifact directly.
func (d SessionDump) WriteJSONL(w io.Writer) error {
	return telemetry.WriteJSONL(w, d.Events)
}

// SessionDump snapshots the session's flight recorder on demand. The
// event slice is a copy; the recorder keeps running.
func (s *Session) SessionDump(reason string) SessionDump {
	d := SessionDump{
		Seq:    s.seq,
		ConnID: s.ConnID(),
		Role:   s.role,
		Reason: reason,
	}
	if tr := s.trace(); tr != nil {
		d.Time = tr.Now()
	} else {
		d.Time = time.Since(s.startWall)
	}
	if s.flight != nil {
		d.Events = s.flight.Events()
		d.Dropped = s.flight.Dropped()
	}
	return d
}

// flightDump captures and publishes the flight recorder at an anomaly:
// the FlightDump callback receives the structured dump, and
// FlightDumpDir (when set) receives a JSONL artifact named after the
// session. A session with neither configured pays nothing here.
func (s *Session) flightDump(reason string) {
	if s.flight == nil {
		return
	}
	cb := s.cfg.Callbacks.FlightDump
	dir := s.cfg.FlightDumpDir
	if cb == nil && dir == "" {
		return
	}
	d := s.SessionDump(reason)
	if cb != nil {
		cb(d)
	}
	if dir != "" {
		name := filepath.Join(dir, fmt.Sprintf("flight-s%d-%08x.jsonl", d.Seq, d.ConnID))
		if f, err := os.Create(name); err == nil {
			d.WriteJSONL(f)
			f.Close()
		}
	}
}

// virtualSinceClock converts a wall-clock elapsed time into virtual
// time when the clock knows the emulation scale (netsim.Network does).
func virtualSinceClock(clock Clock, t time.Time) time.Duration {
	if v, ok := clock.(interface{ VirtualSince(time.Time) time.Duration }); ok {
		return v.VirtualSince(t)
	}
	return time.Since(t)
}

// observeLatency records one phase duration into an aggregate latency
// histogram. Aggregate names (sessions.*, server.*, tcp.*) are never
// unregistered, so harnesses can assert them after session teardown —
// unlike the session.<n>.* vars, which die with their session.
func observeLatency(reg *telemetry.Registry, clock Clock, name string, since time.Time) {
	if reg == nil {
		return
	}
	if clock == nil {
		clock = realClock{}
	}
	reg.Histogram(name).Observe(int64(virtualSinceClock(clock, since)))
}

// observePhase records a session phase duration under sessions.<name>.
func (s *Session) observePhase(name string, since time.Time) {
	observeLatency(s.cfg.Metrics, s.cfg.Clock, "sessions."+name, since)
}

// noteBlackoutStart records the failover blackout start: the wall time
// of the last data record before an unplanned path loss. The first
// failure wins until data flows again.
func (s *Session) noteBlackoutStart() {
	s.blackoutStart.CompareAndSwap(0, s.lastActive.Load())
}

// noteBlackoutEnd closes an open blackout window at the first data
// record after the loss, feeding sessions.failover_blackout_ns
// (last-byte-before to first-byte-after, virtual time). The steady
// state — no failover pending — is one atomic load.
func (s *Session) noteBlackoutEnd() {
	start := s.blackoutStart.Load()
	if start == 0 || !s.blackoutStart.CompareAndSwap(start, 0) {
		return
	}
	s.observePhase("failover_blackout_ns", time.Unix(0, start))
}

// rollupSessionMetrics folds the session's lifetime counters into the
// never-unregistered sessions.* aggregate namespace at teardown: the
// per-session session.<n>.* vars are unregistered on close (bounding
// registry cardinality by live sessions), while the totals survive for
// post-run assertions and long-lived dashboards.
func (s *Session) rollupSessionMetrics() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	reg.Counter("sessions.closed").Inc()
	reg.Gauge("sessions.live").Add(-1)
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"sessions.records_sent", s.ctr.recordsSent.Load()},
		{"sessions.records_rcvd", s.ctr.recordsRcvd.Load()},
		{"sessions.bytes_sent", s.ctr.bytesSent.Load()},
		{"sessions.bytes_rcvd", s.ctr.bytesRcvd.Load()},
		{"sessions.ctrl_sent", s.ctr.ctrlSent.Load()},
		{"sessions.ctrl_rcvd", s.ctr.ctrlRcvd.Load()},
		{"sessions.failovers", s.ctr.failovers.Load()},
		{"sessions.paths_degraded", s.ctr.degraded.Load()},
		{"sessions.replays", s.ctr.replays.Load()},
		{"sessions.caps_degraded", s.ctr.capsDegraded.Load()},
		{"sessions.stalls", s.ctr.stalls.Load()},
	} {
		if c.v > 0 {
			reg.Counter(c.name).Add(c.v)
		}
	}
}

// metricsPrefix is the session's registry namespace.
func (s *Session) metricsPrefix() string {
	return fmt.Sprintf("session.%d.", s.seq)
}

// registerSessionMetrics publishes the session's pull-mode vars. Called
// once from newSession when a registry is configured.
func (s *Session) registerSessionMetrics() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	p := s.metricsPrefix()
	reg.Func(p+"conns", func() int64 { return int64(s.NumConns()) })
	reg.Func(p+"streams", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.streams))
	})
	reg.Func(p+"cookies_left", func() int64 { return int64(s.CookiesLeft()) })
	reg.Func(p+"records_sent", func() int64 { return int64(s.ctr.recordsSent.Load()) })
	reg.Func(p+"records_rcvd", func() int64 { return int64(s.ctr.recordsRcvd.Load()) })
	reg.Func(p+"bytes_sent", func() int64 { return int64(s.ctr.bytesSent.Load()) })
	reg.Func(p+"bytes_rcvd", func() int64 { return int64(s.ctr.bytesRcvd.Load()) })
	reg.Func(p+"ctrl_sent", func() int64 { return int64(s.ctr.ctrlSent.Load()) })
	reg.Func(p+"ctrl_rcvd", func() int64 { return int64(s.ctr.ctrlRcvd.Load()) })
	reg.Func(p+"failovers", func() int64 { return int64(s.ctr.failovers.Load()) })
	reg.Func(p+"paths_degraded", func() int64 { return int64(s.ctr.degraded.Load()) })
	reg.Func(p+"replays", func() int64 { return int64(s.ctr.replays.Load()) })
	reg.Func(p+"caps_degraded", func() int64 { return int64(s.ctr.capsDegraded.Load()) })
	reg.Func(p+"stalls", func() int64 { return int64(s.ctr.stalls.Load()) })
	reg.Func(p+"aead_records_left", func() int64 { return int64(s.AEADRecordsLeft()) })
}

// AEADRecordsLeft reports how many more records the session's busiest
// live connection may protect before the AEAD usage limit ends it with
// tls13.ErrKeyLimit (nothing re-keys a connection). Also exported as the
// session.<n>.aead_records_left metric.
func (s *Session) AEADRecordsLeft() uint64 {
	left := uint64(tls13.MaxRecordsPerKey)
	for _, pc := range s.livePaths() {
		if pc.tls != nil {
			left = min(left, pc.tls.RecordsLeft())
		}
	}
	return left
}

// registerPathMetrics publishes one path's health gauges under
// session.<n>.path.<id>.*; unregisterPathMetrics removes them when the
// path dies so a long-lived session does not accumulate dead vars.
func (s *Session) registerPathMetrics(pc *pathConn) {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	p := fmt.Sprintf("%spath.%d.", s.metricsPrefix(), pc.id)
	reg.Func(p+"srtt_ns", func() int64 {
		return int64(pc.healthSnapshot(s).SRTT)
	})
	reg.Func(p+"probes_sent", func() int64 {
		return int64(pc.healthSnapshot(s).ProbesSent)
	})
	reg.Func(p+"pongs_recv", func() int64 {
		return int64(pc.healthSnapshot(s).PongsReceived)
	})
	reg.Func(p+"outstanding_probes", func() int64 {
		return int64(pc.healthSnapshot(s).Outstanding)
	})
}

func (s *Session) unregisterPathMetrics(pc *pathConn) {
	if reg := s.cfg.Metrics; reg != nil {
		reg.UnregisterPrefix(fmt.Sprintf("%spath.%d.", s.metricsPrefix(), pc.id))
	}
}

// unregisterSessionMetrics drops everything under the session's
// namespace; called from teardown.
func (s *Session) unregisterSessionMetrics() {
	if reg := s.cfg.Metrics; reg != nil {
		reg.UnregisterPrefix(s.metricsPrefix())
	}
}

// traceIDSetter is the optional transport hook (tcpnet.Conn has it)
// that labels the TCP connection's own trace events with the TCPLS path
// id, so tcp:* and path:* events correlate on one timeline.
type traceIDSetter interface {
	SetTraceID(id uint32)
}
