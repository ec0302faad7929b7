package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
)

// TestOverloadErrorWrapping: every admission rejection must match the
// ErrServerOverloaded sentinel through errors.Is and expose its budget
// through errors.As, even when wrapped.
func TestOverloadErrorWrapping(t *testing.T) {
	base := &OverloadError{Resource: "sessions", Limit: 256}
	if !errors.Is(base, ErrServerOverloaded) {
		t.Fatal("OverloadError does not match ErrServerOverloaded")
	}
	wrapped := fmt.Errorf("accept: %w", base)
	if !errors.Is(wrapped, ErrServerOverloaded) {
		t.Fatal("wrapped OverloadError does not match the sentinel")
	}
	var oe *OverloadError
	if !errors.As(wrapped, &oe) || oe.Resource != "sessions" || oe.Limit != 256 {
		t.Fatalf("errors.As lost the budget: %#v", oe)
	}
	if errors.Is(base, ErrLimitExceeded) {
		t.Fatal("server overload must not alias the per-session limit sentinel")
	}
}

// TestServerBudgetsDefaults: zero fields take documented defaults, set
// fields are preserved, and derived budgets scale off MaxSessions.
func TestServerBudgetsDefaults(t *testing.T) {
	b := ServerBudgets{}.withDefaults()
	if b.MaxSessions != DefaultMaxSessions {
		t.Fatalf("MaxSessions = %d, want %d", b.MaxSessions, DefaultMaxSessions)
	}
	if b.MaxTotalPaths != 4*DefaultMaxSessions || b.MaxTotalStreams != 64*DefaultMaxSessions {
		t.Fatalf("derived budgets wrong: paths=%d streams=%d", b.MaxTotalPaths, b.MaxTotalStreams)
	}
	if b.MaxHandshakes != DefaultMaxHandshakes || b.MaxBufferedBytes != DefaultMaxBufferedBytes {
		t.Fatalf("handshakes=%d buffered=%d", b.MaxHandshakes, b.MaxBufferedBytes)
	}
	if b.LowWaterFrac != DefaultLowWaterFrac || b.IdleAfter != DefaultIdleAfter {
		t.Fatalf("lowWater=%v idleAfter=%v", b.LowWaterFrac, b.IdleAfter)
	}
	if b.MaxGoroutines != 0 {
		t.Fatal("goroutine budget must default to disabled")
	}

	p := ServerBudgets{MaxSessions: 10, MaxBufferedBytes: -1, LowWaterFrac: 1.5}.withDefaults()
	if p.MaxSessions != 10 || p.MaxTotalPaths != 40 || p.MaxTotalStreams != 640 {
		t.Fatalf("partial defaults wrong: %+v", p)
	}
	if p.MaxBufferedBytes != -1 {
		t.Fatal("negative MaxBufferedBytes (disabled) must be preserved")
	}
	if p.LowWaterFrac != DefaultLowWaterFrac {
		t.Fatalf("out-of-range LowWaterFrac not defaulted: %v", p.LowWaterFrac)
	}
}

// TestNilAccountingDisablesChecks: a nil ledger is the documented
// client/single-session configuration — every operation must be a no-op.
func TestNilAccountingDisablesChecks(t *testing.T) {
	var a *Accounting
	if err := a.admitConn(); err != nil {
		t.Fatal(err)
	}
	if err := a.beginHandshake(); err != nil {
		t.Fatal(err)
	}
	a.endHandshake()
	if err := a.admitSession(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.acquirePath(); err != nil {
		t.Fatal(err)
	}
	a.releasePath()
	if err := a.acquireStream(); err != nil {
		t.Fatal(err)
	}
	a.releaseStreams(1)
	if !a.hasPathCapacity() {
		t.Fatal("nil ledger must always report path capacity")
	}
	if st := a.Stats(); !st.GateOpen {
		t.Fatal("nil ledger must report an open gate")
	}
}

// acctSession builds a bare admitted session for ledger tests (no
// network, no listener).
func acctSession(t *testing.T, a *Accounting) *Session {
	t.Helper()
	s := newSession(RoleServer, &Config{Accounting: a}, nil)
	if err := a.admitSession(s); err != nil {
		t.Fatalf("admitSession: %v", err)
	}
	t.Cleanup(func() { s.teardown(ErrSessionClosed) })
	return s
}

// TestAdmissionHysteresis: the gate closes at MaxSessions and reopens
// only at the low-water mark, not one session below the cap — a server
// at the boundary must not thrash open/closed per connection.
func TestAdmissionHysteresis(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxSessions: 4, LowWaterFrac: 0.5, IdleAfter: time.Hour})
	var ss []*Session
	for i := 0; i < 4; i++ {
		if err := a.admitConn(); err != nil {
			t.Fatalf("admitConn %d below cap: %v", i, err)
		}
		ss = append(ss, acctSession(t, a))
	}
	err := a.admitConn()
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("admitConn at cap: got %v, want ErrServerOverloaded", err)
	}
	if st := a.Stats(); st.GateOpen || st.AdmissionCloses != 1 {
		t.Fatalf("gate should have closed once: %+v", st)
	}

	// 4 -> 3: still above low water (2); the gate must stay closed.
	ss[0].teardown(ErrSessionClosed)
	if err := a.admitConn(); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("gate reopened above low water: %v", err)
	}

	// 3 -> 2: at low water; the gate reopens and admissions resume.
	ss[1].teardown(ErrSessionClosed)
	if st := a.Stats(); !st.GateOpen {
		t.Fatalf("gate still closed at low water: %+v", st)
	}
	if err := a.admitConn(); err != nil {
		t.Fatalf("admitConn after reopen: %v", err)
	}
	if st := a.Stats(); st.AdmissionCloses != 1 || st.SessionsHWM != 4 {
		t.Fatalf("counters wrong after episode: %+v", st)
	}
}

// TestAdmitSessionExactCap: the increment-then-check slot claim is
// exact — racing admissions past the cap roll back instead of leaking a
// phantom session into the gauge.
func TestAdmitSessionExactCap(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxSessions: 2, IdleAfter: time.Hour})
	acctSession(t, a)
	acctSession(t, a)
	s := newSession(RoleServer, &Config{Accounting: a}, nil)
	defer s.teardown(ErrSessionClosed)
	err := a.admitSession(s)
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("admitSession past cap: %v", err)
	}
	if n := a.Stats().Sessions; n != 2 {
		t.Fatalf("rejected admission leaked into the gauge: %d", n)
	}
	// The loser was never admitted: its teardown must not decrement.
	s.teardown(ErrSessionClosed)
	if n := a.Stats().Sessions; n != 2 {
		t.Fatalf("unadmitted teardown decremented the gauge: %d", n)
	}
}

// TestHandshakeBudget: handshakes-in-flight is a guaranteed reserve
// with rollback, released however the handshake ends.
func TestHandshakeBudget(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxHandshakes: 2})
	if err := a.beginHandshake(); err != nil {
		t.Fatal(err)
	}
	if err := a.beginHandshake(); err != nil {
		t.Fatal(err)
	}
	err := a.beginHandshake()
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("3rd handshake: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Resource != "handshakes" || oe.Limit != 2 {
		t.Fatalf("wrong budget named: %#v", oe)
	}
	if hs := a.Stats().Handshakes; hs != 2 {
		t.Fatalf("rejected reserve leaked: %d", hs)
	}
	a.endHandshake()
	if err := a.beginHandshake(); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

// TestPathStreamBudgets: global path/stream slots are exact, typed, and
// the JOIN pre-check refuses without consuming anything.
func TestPathStreamBudgets(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxSessions: 8, MaxTotalPaths: 2, MaxTotalStreams: 3})
	for i := 0; i < 2; i++ {
		if err := a.acquirePath(); err != nil {
			t.Fatalf("path %d: %v", i, err)
		}
	}
	if !errors.Is(a.acquirePath(), ErrServerOverloaded) {
		t.Fatal("3rd path slot granted past budget")
	}
	if a.hasPathCapacity() {
		t.Fatal("JOIN pre-check claims capacity at the cap")
	}
	if rj := a.Stats().RejectedJoins; rj != 1 {
		t.Fatalf("rejected_joins = %d, want 1", rj)
	}
	a.releasePath()
	if !a.hasPathCapacity() {
		t.Fatal("JOIN pre-check stuck after release")
	}

	for i := 0; i < 3; i++ {
		if err := a.acquireStream(); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	err := a.acquireStream()
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Resource != "streams" {
		t.Fatalf("4th stream: %v", err)
	}
	a.releaseStreams(3)
	if n := a.Stats().Streams; n != 0 {
		t.Fatalf("stream gauge after release = %d", n)
	}
}

// TestShedNewestIdleFirst: within the idle wave the youngest session
// goes first — it has the least invested state — and the pass stops at
// the low-water mark instead of draining every candidate.
func TestShedNewestIdleFirst(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxSessions: 4, LowWaterFrac: 0.76, IdleAfter: time.Hour})
	idleOld := acctSession(t, a)
	idleNew := acctSession(t, a)
	busy := acctSession(t, a)
	fresh := acctSession(t, a)

	stale := time.Now().Add(-2 * time.Hour).UnixNano()
	idleOld.lastActive.Store(stale)
	idleNew.lastActive.Store(stale)
	// busy is stale too, but holds unacked data: a mid-transfer session
	// is protected no matter how long the peer pauses.
	busy.lastActive.Store(stale)
	st, err := busy.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	holdUnacked(st, 100)
	_ = fresh // recent data activity: protected

	a.shedPass() // low water = int(0.76*4) = 3: shed exactly one

	if !idleNew.Closed() {
		t.Fatal("newest idle session survived the pass")
	}
	if !errors.Is(idleNew.Err(), ErrServerOverloaded) {
		t.Fatalf("shed error = %v, want ErrServerOverloaded", idleNew.Err())
	}
	if idleOld.Closed() || busy.Closed() || fresh.Closed() {
		t.Fatal("pass shed beyond the low-water mark")
	}
	if st := a.Stats(); st.ShedIdle != 1 || st.ShedDegraded != 0 || st.Sessions != 3 {
		t.Fatalf("stats after pass: %+v", st)
	}
}

// TestShedPriorityOrder: idle sessions go before degraded ones, and a
// healthy session with data in flight is never shed even when the pass
// cannot reach the low-water mark. Event order proves the waves.
func TestShedPriorityOrder(t *testing.T) {
	ring := telemetry.NewRingSink(64)
	tr := telemetry.NewTracer(telemetry.WithSink(ring))
	a := NewAccounting(ServerBudgets{MaxSessions: 4, LowWaterFrac: 0.1, IdleAfter: time.Hour})
	a.attachTracer(tr)

	idle := acctSession(t, a)
	degraded := acctSession(t, a)
	busy := acctSession(t, a)

	idle.lastActive.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	degraded.mu.Lock()
	degraded.plainMode = true // recent activity, but running degraded
	degraded.mu.Unlock()
	busy.lastActive.Store(time.Now().Add(-2 * time.Hour).UnixNano())
	st, err := busy.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	holdUnacked(st, 1)

	a.shedPass() // low water 0: sheds everything eligible

	if !idle.Closed() || !degraded.Closed() {
		t.Fatal("eligible sessions survived")
	}
	if busy.Closed() {
		t.Fatal("shed a healthy session with data in flight")
	}
	var shedClasses []string
	for _, ev := range ring.Events() {
		if ev.Kind == telemetry.EvSessionShed {
			shedClasses = append(shedClasses, ev.S)
		}
	}
	if len(shedClasses) != 2 || shedClasses[0] != "idle" || shedClasses[1] != "degraded" {
		t.Fatalf("shed order = %v, want [idle degraded]", shedClasses)
	}
	if st := a.Stats(); st.ShedIdle != 1 || st.ShedDegraded != 1 || st.Sessions != 1 {
		t.Fatalf("stats after pass: %+v", st)
	}
}

// TestShedReleasesReopensGate: an overload episode end to end — cap
// hit, gate closed, shed pass reclaims idle sessions, the release
// crosses the low-water mark and the gate reopens on its own.
func TestShedReleasesReopensGate(t *testing.T) {
	a := NewAccounting(ServerBudgets{MaxSessions: 4, LowWaterFrac: 0.5, IdleAfter: time.Hour})
	stale := time.Now().Add(-2 * time.Hour).UnixNano()
	for i := 0; i < 4; i++ {
		acctSession(t, a).lastActive.Store(stale)
	}
	if err := a.admitConn(); !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("cap not enforced: %v", err)
	}
	// admitConn closed the gate and requested a background shed pass.
	waitFor(t, 5*time.Second, func() bool { return a.Stats().GateOpen },
		"shed pass never reopened the admission gate")
	st := a.Stats()
	if st.Sessions != 2 { // low water = 2
		t.Fatalf("sessions after shed = %d, want 2", st.Sessions)
	}
	if st.ShedIdle != 2 {
		t.Fatalf("shed_idle = %d, want 2", st.ShedIdle)
	}
	if err := a.admitConn(); err != nil {
		t.Fatalf("admission still refused after recovery: %v", err)
	}
}
