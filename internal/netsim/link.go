package netsim

import (
	"math"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/ring"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// LinkConfig sets the characteristics of one point-to-point link. Both
// directions share the same parameters.
type LinkConfig struct {
	// Name appears in traces; defaults to "a-b".
	Name string
	// BandwidthBps is the link rate in bits per second. 0 means infinite
	// (no serialization delay).
	BandwidthBps float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueBytes bounds the drop-tail queue at the link entrance.
	// 0 means a default of 100 full-size packets.
	QueueBytes int
	// Loss is the independent per-packet drop probability in [0,1).
	Loss float64
}

// DefaultQueueBytes is the drop-tail queue bound when none is configured:
// roughly 100 full-size packets, a common router default.
const DefaultQueueBytes = 100 * 1500

// Direction identifies which way a packet traverses a link.
type Direction int

// Link directions: AtoB flows from the first host passed to AddLink
// toward the second.
const (
	AtoB Direction = iota
	BtoA
)

// String renders the direction.
func (d Direction) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// Link is a full-duplex point-to-point link between two hosts.
type Link struct {
	cfg  LinkConfig
	net  *Network
	a, b *Host
	ab   *linkDir // a -> b
	ba   *linkDir // b -> a

	ctr linkCounters

	// state is the link's administrative configuration, published as an
	// immutable snapshot so the per-packet path reads it with one atomic
	// load; the setters copy it under mu.
	mu       sync.Mutex
	state    atomic.Pointer[linkState]
	lossBits atomic.Uint64 // dynamic loss probability (math.Float64bits)
}

// linkState is indexed by Direction where it is per direction.
type linkState struct {
	mboxes  []Middlebox
	down    [2]bool // administratively down
	stalled [2]bool // silent blackhole
}

// update publishes a modified copy of the link state. mutate receives a
// shallow copy whose slice it must replace, not write through.
func (l *Link) update(mutate func(st *linkState)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := *l.state.Load()
	mutate(&st)
	l.state.Store(&st)
}

// dir returns the state of one direction.
func (l *Link) dir(d Direction) *linkDir {
	if d == AtoB {
		return l.ab
	}
	return l.ba
}

// linkCounters aggregates both directions of a link. All atomics:
// transmit/drain run on independent goroutines.
type linkCounters struct {
	sent, sentBytes           atomic.Uint64
	delivered, deliveredBytes atomic.Uint64
	dropQueue                 atomic.Uint64 // drop-tail queue overflow (bandwidth backlog or channel full)
	dropLoss                  atomic.Uint64 // injected random loss
	dropDown                  atomic.Uint64 // administratively down
	dropStall                 atomic.Uint64 // silent stall fault
	dropMbox                  atomic.Uint64 // eaten by a middlebox
	queueHWM                  atomic.Int64  // max observed queue occupancy, bytes
}

// LinkStats is a snapshot of a link's counters — the "why did my
// packets die" view experiments assert on.
type LinkStats struct {
	Sent, SentBytes           uint64
	Delivered, DeliveredBytes uint64
	DropQueue                 uint64
	DropLoss                  uint64
	DropDown                  uint64
	DropStall                 uint64
	DropMbox                  uint64
	QueueHighWater            int64
}

// Drops sums the per-cause drop counters.
func (s LinkStats) Drops() uint64 {
	return s.DropQueue + s.DropLoss + s.DropDown + s.DropStall + s.DropMbox
}

// Stats snapshots the link's counters (both directions combined).
func (l *Link) Stats() LinkStats {
	return LinkStats{
		Sent:           l.ctr.sent.Load(),
		SentBytes:      l.ctr.sentBytes.Load(),
		Delivered:      l.ctr.delivered.Load(),
		DeliveredBytes: l.ctr.deliveredBytes.Load(),
		DropQueue:      l.ctr.dropQueue.Load(),
		DropLoss:       l.ctr.dropLoss.Load(),
		DropDown:       l.ctr.dropDown.Load(),
		DropStall:      l.ctr.dropStall.Load(),
		DropMbox:       l.ctr.dropMbox.Load(),
		QueueHighWater: l.ctr.queueHWM.Load(),
	}
}

// RegisterMetrics exposes the link's counters as pull-style vars under
// netsim.link.<name>.* in the registry.
func (l *Link) RegisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	prefix := "netsim.link." + l.cfg.Name + "."
	u := func(name string, v *atomic.Uint64) {
		reg.Func(prefix+name, func() int64 { return int64(v.Load()) })
	}
	u("sent", &l.ctr.sent)
	u("sent_bytes", &l.ctr.sentBytes)
	u("delivered", &l.ctr.delivered)
	u("delivered_bytes", &l.ctr.deliveredBytes)
	u("drop_queue", &l.ctr.dropQueue)
	u("drop_loss", &l.ctr.dropLoss)
	u("drop_down", &l.ctr.dropDown)
	u("drop_stall", &l.ctr.dropStall)
	u("drop_mbox", &l.ctr.dropMbox)
	reg.Func(prefix+"queue_high_water", func() int64 { return l.ctr.queueHWM.Load() })
}

// drop discards a packet that entered the link: counted by cause,
// mirrored into both traces, and its pooled payload released.
func (l *Link) drop(ctr *atomic.Uint64, trace string, kind telemetry.EventKind, p *wire.Packet) {
	l.net.emit(trace, "", l.cfg.Name, p)
	l.noteDrop(ctr, kind, p)
	bufpool.Put(p.Payload)
}

// noteDrop counts a dropped packet by cause and mirrors it into the
// telemetry trace.
func (l *Link) noteDrop(ctr *atomic.Uint64, kind telemetry.EventKind, p *wire.Packet) {
	ctr.Add(1)
	l.net.tracer().Emit(telemetry.Event{Kind: kind, A: int64(p.Len()), S: l.cfg.Name})
}

// LinkEnd is one host's attachment to a link: transmitting on it sends
// toward the peer host.
type LinkEnd struct {
	link *Link
	dir  Direction
}

// linkDir carries state for one direction of the link. Delivery is
// strictly FIFO: a dedicated goroutine drains the in-flight queue in
// order, which matters because TCP interprets reordering as loss.
//
// The in-flight queue is a bounded MPSC ring with a coalescing
// doorbell: transmitters of a whole burst pay one atomic per packet
// plus at most one channel send, and the drain goroutine wakes once
// per burst instead of once per segment. Packets sit in the ring by
// value — the header is copied in on transmit and handed to the
// receiving handler by pointer into the drain batch — so a packet
// crossing the link costs no allocation.
type linkDir struct {
	link  *Link
	dst   *Host
	delay time.Duration // wall-clock propagation delay

	mu       sync.Mutex
	nextFree time.Time // when the transmitter finishes the current queue
	inflight *ring.Ring[timedPacket]
}

type timedPacket struct {
	p         wire.Packet
	deliverAt time.Time
}

// inflightCap bounds each direction's in-flight ring; overflow is
// dropped and counted as drop_queue, like the channel it replaced. Two
// thousand packets is ~3 MB of full-size segments on the wire, several
// times what any window or drop-tail queue here admits; the cells hold
// packets by value, so the bound is also what a link costs in memory
// (~230 KB per direction).
const inflightCap = 2048

// drainBatch is how many packets the drain goroutine pops, and at most
// hands to the receiving host, at once.
const drainBatch = 64

// drain delivers queued packets in order at their scheduled times.
// Because enqueue stamps deliverAt from a monotone per-direction
// departure clock, deliverAt never decreases across pops, so a single
// reusable timer suffices for the whole queue. Packets that are due
// together are handed to the host together.
func (d *linkDir) drain(done <-chan struct{}) {
	var batch [drainBatch]timedPacket
	var due [drainBatch]*wire.Packet
	for i := range due {
		due[i] = &batch[i].p
	}
	tm := time.NewTimer(time.Hour)
	if !tm.Stop() {
		<-tm.C
	}
	defer tm.Stop()
	l := d.link
	for {
		n := d.inflight.PopBatch(batch[:])
		if n == 0 {
			select {
			case <-d.inflight.Bell():
				continue
			case <-done:
				return
			}
		}
		for i := 0; i < n; {
			now := time.Now()
			if wait := batch[i].deliverAt.Sub(now); wait > 0 {
				tm.Reset(wait)
				select {
				case <-tm.C:
				case <-done:
					return
				}
				now = time.Now()
			}
			j := i + 1
			for j < n && !batch[j].deliverAt.After(now) {
				j++
			}
			var bytes uint64
			for _, p := range due[i:j] {
				l.net.emit("recv", d.dst.name, "", p)
				bytes += uint64(p.Len())
			}
			l.ctr.delivered.Add(uint64(j - i))
			l.ctr.deliveredBytes.Add(bytes)
			d.dst.deliver(due[i:j])
			i = j
		}
		clear(batch[:n]) // release the payload references
	}
}

// AddLink connects two hosts with a link, assigns addrA/addrB to the
// respective hosts, and installs host routes so each host reaches the
// peer's address (and its /24 or /64 neighborhood) through this link.
func (n *Network) AddLink(a, b *Host, addrA, addrB netip.Addr, cfg LinkConfig) *Link {
	if cfg.Name == "" {
		cfg.Name = a.name + "-" + b.name
	}
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = DefaultQueueBytes
	}
	l := &Link{cfg: cfg, net: n, a: a, b: b}
	l.state.Store(&linkState{})
	l.lossBits.Store(math.Float64bits(cfg.Loss))
	delay := n.ScaleDuration(cfg.Delay)
	l.ab = &linkDir{link: l, dst: b, delay: delay, inflight: ring.New[timedPacket](inflightCap)}
	l.ba = &linkDir{link: l, dst: a, delay: delay, inflight: ring.New[timedPacket](inflightCap)}
	go l.ab.drain(n.done)
	go l.ba.drain(n.done)
	a.AddAddr(addrA)
	b.AddAddr(addrB)
	bitsFor := func(ad netip.Addr) int {
		if ad.Is4() {
			return 24
		}
		return 64
	}
	pa, _ := addrA.Prefix(bitsFor(addrA))
	pb, _ := addrB.Prefix(bitsFor(addrB))
	a.AddRoute(pb, &LinkEnd{l, AtoB})
	b.AddRoute(pa, &LinkEnd{l, BtoA})
	n.mu.Lock()
	n.links = append(n.links, l)
	n.mu.Unlock()
	return l
}

// Name returns the link's trace name.
func (l *Link) Name() string { return l.cfg.Name }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Use appends middleboxes to the link's processing chain. Every packet in
// either direction passes through them in order.
func (l *Link) Use(m ...Middlebox) *Link {
	l.update(func(st *linkState) { st.mboxes = append(slices.Clone(st.mboxes), m...) })
	return l
}

// SetDown administratively disables or enables both directions of the
// link: while down, every packet entering it is dropped. Used to emulate
// the network outages behind the paper's failover scenarios.
func (l *Link) SetDown(down bool) {
	l.update(func(st *linkState) { st.down = [2]bool{down, down} })
}

// SetDownDir disables or enables a single direction of the link,
// emulating asymmetric outages (a route withdrawn one way only).
func (l *Link) SetDownDir(dir Direction, down bool) {
	l.update(func(st *linkState) { st.down[dir] = down })
}

// SetStall silently blackholes one direction of the link: unlike
// SetDownDir the drop is not traced as an administrative event, matching
// middleboxes and bugs that eat packets without any observable signal.
// A stalled path produces no read-loop error at the transport — only a
// health probe (or TCP user timeout) can detect it.
func (l *Link) SetStall(dir Direction, stalled bool) {
	l.update(func(st *linkState) { st.stalled[dir] = stalled })
}

// StallBoth stalls or unstalls both directions at once.
func (l *Link) StallBoth(stalled bool) {
	l.SetStall(AtoB, stalled)
	l.SetStall(BtoA, stalled)
}

// SetLoss changes the link's independent per-packet drop probability at
// runtime (fault schedules ramp loss up and down mid-experiment).
func (l *Link) SetLoss(p float64) {
	if p < 0 {
		p = 0
	}
	if p >= 1 {
		p = 0.999999
	}
	l.lossBits.Store(math.Float64bits(p))
}

// Loss returns the current per-packet drop probability.
func (l *Link) Loss() float64 { return math.Float64frombits(l.lossBits.Load()) }

// EndA returns the a-side attachment (transmits toward b). Useful when
// installing extra routes by hand.
func (l *Link) EndA() *LinkEnd { return &LinkEnd{l, AtoB} }

// EndB returns the b-side attachment (transmits toward a).
func (l *Link) EndB() *LinkEnd { return &LinkEnd{l, BtoA} }

// transmitBatch sends a burst of packets down the link: dropped if the
// direction is down or stalled, through the middlebox chain if there is
// one, then into the direction's queue under one lock hold.
func (e *LinkEnd) transmitBatch(pkts []*wire.Packet) {
	l := e.link
	st := l.state.Load()
	switch {
	case st.down[e.dir]:
		for _, p := range pkts {
			l.drop(&l.ctr.dropDown, "drop-down", telemetry.EvLinkDropDown, p)
		}
	case st.stalled[e.dir]:
		for _, p := range pkts {
			l.drop(&l.ctr.dropStall, "drop-stall", telemetry.EvLinkDropStall, p)
		}
	case len(st.mboxes) > 0:
		for _, p := range pkts {
			e.throughMiddleboxes(st.mboxes, p)
		}
	default:
		l.dir(e.dir).enqueue(pkts)
	}
}

// throughMiddleboxes runs p through the chain and queues what comes out:
// forward results continue down the link, reverse injections enter the
// opposite direction. Every middlebox works on a clone (GC-backed), so
// once the chain has run nothing downstream references p's pooled
// payload and it is released.
func (e *LinkEnd) throughMiddleboxes(mboxes []Middlebox, p *wire.Packet) {
	l := e.link
	fwd := []*wire.Packet{p}
	for _, m := range mboxes {
		var next []*wire.Packet
		for _, q := range fwd {
			out, back := m.Process(q.Clone(), e.dir)
			next = append(next, out...)
			for _, bp := range back {
				l.net.emit("inject", "", l.cfg.Name, bp)
			}
			l.dir(e.dir ^ 1).enqueue(back)
			if len(out) == 0 {
				l.net.emit("drop-mbox", "", l.cfg.Name, q)
				l.noteDrop(&l.ctr.dropMbox, telemetry.EvLinkDropMbox, q)
			}
		}
		fwd = next
	}
	bufpool.Put(p.Payload)
	l.dir(e.dir).enqueue(fwd)
}

// enqueue models the drop-tail queue plus the serialization and
// propagation delays of the direction for a burst of packets, under a
// single lock acquisition and one clock read. Loss draws, bandwidth
// backlog and delivery times are computed per packet; the ring is filled
// under the same lock that stamps the delivery times, so ring order and
// time order agree, and the doorbell rings once for the burst.
func (d *linkDir) enqueue(pkts []*wire.Packet) {
	if len(pkts) == 0 {
		return
	}
	l := d.link
	cfg := &l.cfg
	loss := l.Loss()
	var hwm int64
	pushed := false
	d.mu.Lock()
	now := time.Now()
	for _, p := range pkts {
		if loss > 0 && l.net.lossDraw() < loss {
			l.drop(&l.ctr.dropLoss, "drop-loss", telemetry.EvLinkDropLoss, p)
			continue
		}
		size := p.Len()
		if d.nextFree.Before(now) {
			d.nextFree = now // idle transmitter: no traffic ahead of us
		}
		if cfg.BandwidthBps > 0 {
			// Queue occupancy approximated by the wall-clock backlog
			// converted back to bytes: (virtual seconds) * bandwidth / 8.
			virtualBacklog := float64(d.nextFree.Sub(now)) / l.net.scale
			queued := virtualBacklog / float64(time.Second) * cfg.BandwidthBps / 8
			if int(queued) > cfg.QueueBytes {
				l.drop(&l.ctr.dropQueue, "drop-queue", telemetry.EvLinkDropQueue, p)
				continue
			}
			hwm = max(hwm, int64(queued)+int64(size))
			txTime := time.Duration(float64(size*8) / cfg.BandwidthBps * float64(time.Second))
			d.nextFree = d.nextFree.Add(l.net.ScaleDuration(txTime))
		}
		l.net.emit("send", "", cfg.Name, p)
		l.ctr.sent.Add(1)
		l.ctr.sentBytes.Add(uint64(size))
		if !d.inflight.TryPushQuiet(timedPacket{*p, d.nextFree.Add(d.delay)}) {
			l.drop(&l.ctr.dropQueue, "drop-queue", telemetry.EvLinkDropQueue, p)
			continue
		}
		pushed = true
	}
	d.mu.Unlock()
	if pushed {
		d.inflight.Ring()
	}
	if hwm > 0 {
		l.noteQueueDepth(hwm)
	}
}

// noteQueueDepth records queue occupancy, tracing each new high-water
// mark (a monotone, hence bounded, event stream).
func (l *Link) noteQueueDepth(bytes int64) {
	for {
		cur := l.ctr.queueHWM.Load()
		if bytes <= cur {
			return
		}
		if l.ctr.queueHWM.CompareAndSwap(cur, bytes) {
			l.net.tracer().Emit(telemetry.Event{Kind: telemetry.EvLinkQueue, A: bytes, S: l.cfg.Name})
			return
		}
	}
}
