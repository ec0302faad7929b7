// Package netsim is a real-time packet network emulator: hosts with
// dual-stack addresses, point-to-point links with configurable bandwidth,
// propagation delay, queueing and loss, and middleboxes that rewrite the
// serialized segments flowing through a link.
//
// It plays the role of the IPMininet testbed used in the TCPLS paper's
// evaluation (§3.2): the Figure 4 topology — a client and a server joined
// by one IPv4-only and one IPv6-only path at 30 Mbps — is a dozen lines of
// netsim calls. A global time scale shrinks every delay and transmission
// time by the same factor, so a 16-second experiment can run in a few
// seconds of wall-clock time without changing protocol behaviour; results
// are reported in virtual time.
package netsim

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// Network is a collection of hosts and links sharing one time scale.
type Network struct {
	scale float64
	start time.Time
	done  chan struct{}

	// wheel is the network's hierarchical timing wheel: every emulated
	// timer — loopback delivery, retransmission, TIME-WAIT, dial
	// timeouts, fault schedules — is a node on it, so an emulation with
	// thousands of connections costs one driver goroutine and zero
	// allocation per (re)arm instead of a runtime timer per event.
	wheel *timingwheel.Wheel

	// tele receives structured link events (queue growth, drops by
	// cause). Atomic so it can be attached while traffic flows; a nil
	// tracer is disabled at zero cost.
	tele atomic.Pointer[telemetry.Tracer]

	mu    sync.Mutex
	hosts map[string]*Host
	links []*Link
	trace func(TraceEvent)
	rng   *rand.Rand
	seed  int64
}

// Option configures a Network.
type Option func(*Network)

// WithTimeScale sets the time-compression factor: every emulated duration
// d takes d*scale of wall-clock time. scale=1 is real time; scale=0.25
// runs four times faster. Values below ~0.05 exceed timer resolution at
// high packet rates and distort bandwidth emulation.
func WithTimeScale(scale float64) Option {
	return func(n *Network) {
		if scale > 0 {
			n.scale = scale
		}
	}
}

// WithSeed seeds the network's RNG (loss draws), making runs reproducible.
// The seed is retained and reported by Seed so a failing run can log the
// exact value needed to replay it.
func WithSeed(seed int64) Option {
	return func(n *Network) {
		n.rng = rand.New(rand.NewSource(seed))
		n.seed = seed
	}
}

// WithTrace installs a callback invoked for every packet event. Used by
// the tcpdump-like tracer in cmd/tcpls-trace and by tests.
func WithTrace(fn func(TraceEvent)) Option {
	return func(n *Network) { n.trace = fn }
}

// WithTracer attaches a structured telemetry tracer; see SetTracer.
func WithTracer(t *telemetry.Tracer) Option {
	return func(n *Network) { n.tele.Store(t) }
}

// New creates an empty network.
func New(opts ...Option) *Network {
	n := &Network{
		scale: 1.0,
		start: time.Now(),
		done:  make(chan struct{}),
		hosts: make(map[string]*Host),
		rng:   rand.New(rand.NewSource(1)),
		seed:  1,
	}
	for _, o := range opts {
		o(n)
	}
	// 50µs tick: fine enough that the loopback delivery delay (50µs)
	// lands on the first slot instead of being rounded up, coarse
	// enough that an idle wheel wakes rarely. Started eagerly so the
	// driver goroutine is part of a test's settled baseline.
	n.wheel = timingwheel.New(50 * time.Microsecond).Start()
	return n
}

// Close stops the network's link-delivery goroutines. Hosts and stacks
// attached to the network stop receiving packets.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.done:
	default:
		close(n.done)
		n.wheel.StopDriver()
	}
}

// Scale returns the configured time-compression factor.
func (n *Network) Scale() float64 { return n.scale }

// Seed returns the RNG seed the network was created with (1 unless
// WithSeed overrode it). Chaos and loss tests log it on failure so the
// run can be replayed exactly.
func (n *Network) Seed() int64 { return n.seed }

// Now returns the current wall-clock time. Durations measured between two
// Now calls are wall-clock; divide by Scale (or use VirtualSince) to get
// emulated time.
func (n *Network) Now() time.Time { return time.Now() }

// Virtual converts a wall-clock duration into emulated (virtual) time:
// the inverse of ScaleDuration, for callers that already hold both
// instants and need no further clock read.
func (n *Network) Virtual(wall time.Duration) time.Duration {
	return time.Duration(float64(wall) / n.scale)
}

// VirtualSince converts wall-clock elapsed time since t into emulated
// (virtual) time.
func (n *Network) VirtualSince(t time.Time) time.Duration { return n.Virtual(time.Since(t)) }

// VirtualNow returns the virtual time elapsed since the network was
// created — the shared clock for telemetry tracers, so events stamped
// by different endpoints land on one timeline.
func (n *Network) VirtualNow() time.Duration {
	return n.VirtualSince(n.start)
}

// SetTracer attaches (or with nil detaches) the structured telemetry
// tracer that receives link-level events: drops by cause and queue
// high-water marks. Distinct from WithTrace, which sees every packet;
// the telemetry tracer sees only the events experiments assert on.
func (n *Network) SetTracer(t *telemetry.Tracer) { n.tele.Store(t) }

func (n *Network) tracer() *telemetry.Tracer { return n.tele.Load() }

// ScaleDuration converts an emulated duration into the wall-clock
// duration it should take under the current time scale.
func (n *Network) ScaleDuration(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.scale)
}

// AfterFunc schedules f after emulated duration d (scaled to wall time)
// on the network's timing wheel. The callback runs on the wheel's driver
// goroutine; it must not block.
func (n *Network) AfterFunc(d time.Duration, f func()) *timingwheel.Timer {
	return n.wheel.AfterFunc(n.ScaleDuration(d), f)
}

// Schedule (re)arms the caller-owned timer t to run f after emulated
// duration d. Embedding the Timer in a connection and rearming it in
// place makes periodic timers (retransmission, persist) allocation-free.
func (n *Network) Schedule(t *timingwheel.Timer, d time.Duration, f func()) *timingwheel.Timer {
	return n.wheel.Schedule(t, n.ScaleDuration(d), f)
}

// WallSchedule (re)arms t after *unscaled* wall-clock duration d. Used
// for real-time deadlines (Set{Read,Write}Deadline): compressing those
// with the emulation scale would fire them early and break the contract
// that a deadline is an absolute wall-clock instant.
func (n *Network) WallSchedule(t *timingwheel.Timer, d time.Duration, f func()) *timingwheel.Timer {
	return n.wheel.Schedule(t, d, f)
}

// Sleep blocks for emulated duration d.
func (n *Network) Sleep(d time.Duration) { time.Sleep(n.ScaleDuration(d)) }

// Host creates (or returns) the named host.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[name]; ok {
		return h
	}
	h := &Host{name: name, net: n}
	h.state.Store(&hostState{handlers: map[uint8]func([]*wire.Packet){}})
	n.hosts[name] = h
	return h
}

// emit reports a packet event to the WithTrace callback, if one is
// installed. The callback gets its own copy of the packet header, so p
// does not escape through it and a caller may pass a stack packet.
func (n *Network) emit(kind, host, link string, p *wire.Packet) {
	if n.trace != nil {
		q := *p
		n.trace(TraceEvent{Time: n.VirtualSince(n.start), Kind: kind, Host: host, Link: link, Packet: &q})
	}
}

func (n *Network) lossDraw() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rng.Float64()
}

// Host is an emulated end system: a set of addresses, a route table, and
// per-protocol packet handlers (the attachment points for the userspace
// TCP and UDP stacks).
type Host struct {
	name string
	net  *Network

	// state is the host's configuration, published as an immutable
	// snapshot: the per-packet paths (HasAddr, route lookup, delivery)
	// read it with one atomic load; the rare mutators copy it under mu.
	mu    sync.Mutex
	state atomic.Pointer[hostState]
}

type hostState struct {
	addrs    []netip.Addr
	routes   []route
	handlers map[uint8]func([]*wire.Packet)
}

type route struct {
	prefix netip.Prefix
	end    *LinkEnd
}

// update publishes a modified copy of the host state. mutate receives a
// shallow copy whose slices and map it must replace, not write through.
func (h *Host) update(mutate func(st *hostState)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := *h.state.Load()
	mutate(&st)
	h.state.Store(&st)
}

// Name returns the host's name.
func (h *Host) Name() string { return h.name }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// AddAddr assigns an additional address to the host.
func (h *Host) AddAddr(a netip.Addr) {
	h.update(func(st *hostState) {
		if !slices.Contains(st.addrs, a) {
			st.addrs = append(slices.Clone(st.addrs), a)
		}
	})
}

// Addrs returns a copy of the host's addresses.
func (h *Host) Addrs() []netip.Addr { return slices.Clone(h.state.Load().addrs) }

// HasAddr reports whether a is one of the host's addresses.
func (h *Host) HasAddr(a netip.Addr) bool { return slices.Contains(h.state.Load().addrs, a) }

// AddRoute installs prefix -> link-end into the route table. Longest
// prefix wins; ties go to the most recently added route.
func (h *Host) AddRoute(prefix netip.Prefix, end *LinkEnd) {
	h.update(func(st *hostState) {
		st.routes = append(slices.Clone(st.routes), route{prefix, end})
	})
}

func (h *Host) lookupRoute(dst netip.Addr) *LinkEnd {
	routes := h.state.Load().routes
	var best *LinkEnd
	bestLen := -1
	for i := range routes {
		r := &routes[i]
		if r.prefix.Contains(dst) && r.prefix.Bits() >= bestLen {
			best, bestLen = r.end, r.prefix.Bits()
		}
	}
	return best
}

// Register installs the handler for a transport protocol number. Packets
// addressed to this host with that protocol are delivered to it one at a
// time (on the link's delivery goroutine — handlers must not block for
// long).
//
// The *wire.Packet is valid only until the handler returns: it points
// into the link's delivery batch, which the next delivery overwrites. A
// handler that keeps the header copies the struct. The Payload is a
// different matter — ownership of that buffer passes to the handler, which
// releases it with bufpool.Put when done (see DESIGN.md §9).
func (h *Host) Register(proto uint8, fn func(*wire.Packet)) {
	h.RegisterBatch(proto, func(pkts []*wire.Packet) {
		for _, p := range pkts {
			fn(p)
		}
	})
}

// RegisterBatch installs a handler that receives each run of packets the
// host is handed together — everything a link direction found due at one
// instant, in arrival order — in a single call, so a transport can process
// a burst under one lock hold. The slice and the packets it points to are
// valid only until the handler returns; payload ownership passes to the
// handler as with Register.
func (h *Host) RegisterBatch(proto uint8, fn func([]*wire.Packet)) {
	h.update(func(st *hostState) {
		st.handlers = maps.Clone(st.handlers)
		st.handlers[proto] = fn
	})
}

// loopbackDelay is the delivery delay of a packet a host sends to itself.
// Asynchronous like a real loopback interface: protocol handlers may send
// while holding their own locks.
const loopbackDelay = 50 * time.Microsecond

// loopback schedules delivery of a copy of p to the host itself.
func (h *Host) loopback(p *wire.Packet) {
	h.net.emit("loop", h.name, "", p)
	q := *p
	h.net.AfterFunc(loopbackDelay, func() { h.deliver([]*wire.Packet{&q}) })
}

// Send routes the packet: locally if dst is one of the host's own
// addresses, otherwise via the route table. It returns an error if no
// route matches — emulating an unreachable network.
//
// The network copies the packet header before Send returns, so p may
// live on the caller's stack or in reused scratch; ownership of the
// Payload buffer moves into the network on success and stays with the
// caller on error.
func (h *Host) Send(p *wire.Packet) error { return h.SendBatch([]*wire.Packet{p}) }

// SendBatch routes a burst of packets sharing one destination — the
// common shape of an ACK-clocked TCP flight — with a single route lookup
// and a single pass through the link queue. Header and payload ownership
// are as with Send, for every packet of the burst.
func (h *Host) SendBatch(pkts []*wire.Packet) error {
	if len(pkts) == 0 {
		return nil
	}
	dst := pkts[0].Dst
	if h.HasAddr(dst) {
		for _, p := range pkts {
			h.loopback(p)
		}
		return nil
	}
	end := h.lookupRoute(dst)
	if end == nil {
		return fmt.Errorf("netsim: %s: no route to %s", h.name, dst)
	}
	end.transmitBatch(pkts)
	return nil
}

// deliver hands packets that have arrived at this host to their protocol
// handlers, one call per run of packets sharing a protocol.
func (h *Host) deliver(pkts []*wire.Packet) {
	handlers := h.state.Load().handlers
	for i := 0; i < len(pkts); {
		proto := pkts[i].Proto
		j := i + 1
		for j < len(pkts) && pkts[j].Proto == proto {
			j++
		}
		if fn := handlers[proto]; fn != nil {
			fn(pkts[i:j])
		}
		i = j
	}
}

// TraceEvent describes a packet event for tracing.
type TraceEvent struct {
	Time   time.Duration // virtual time since network creation
	Kind   string        // "send", "recv", "drop-queue", "drop-loss", "drop-mbox", "drop-down", "drop-stall", "inject", "loop"
	Host   string        // receiving or sending host (delivery events)
	Link   string        // link name (link events)
	Packet *wire.Packet
}

// String renders the event in a tcpdump-like single line.
func (e TraceEvent) String() string {
	where := e.Link
	if where == "" {
		where = e.Host
	}
	desc := ""
	if e.Packet != nil {
		desc = e.Packet.String()
		if e.Packet.Proto == wire.ProtoTCP {
			if seg, err := wire.UnmarshalSegment(e.Packet.Payload, e.Packet.Src, e.Packet.Dst, false); err == nil {
				desc = fmt.Sprintf("%s > %s: %s", e.Packet.Src, e.Packet.Dst, seg)
			}
		}
	}
	return fmt.Sprintf("%12s %-10s %-12s %s", e.Time.Truncate(time.Microsecond), e.Kind, where, desc)
}
