package main

import (
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/cc"
	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/tcpnet"
)

// The pipe below is the bounded in-memory connection of
// pipe_bench_test.go, copied here so that the benchmark owns its
// transport: each direction holds at most pipeBufCap bytes and a writer
// blocks beyond that, as a kernel socket buffer would make it. The only
// addition is that each direction accounts the time its writer and its
// reader spend in cond.Wait, which says which side of a transfer is the
// bottleneck.

const pipeBufCap = 256 << 10

type pipeBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte // buf[off:] holds unread bytes
	off    int
	closed bool

	own   pipeWaits  // of this buffer: a traced call reads its own wait from it
	total *pipeWaits // of every pipe a world dialed in this direction
}

// pipeWaits accumulates blocked time in one direction.
type pipeWaits struct {
	writer atomic.Int64 // ns writers sat in cond.Wait (buffer full)
	reader atomic.Int64 // ns readers sat in cond.Wait (buffer empty)
}

func newPipeBuf(total *pipeWaits) *pipeBuf {
	b := &pipeBuf{buf: make([]byte, 0, pipeBufCap), total: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

type pipeEnd struct {
	r, w *pipeBuf
}

// newBufferedPipe returns the two ends of a pipe; a2b and b2a receive
// the wait times of the two directions.
func newBufferedPipe(a2b, b2a *pipeWaits) (*pipeEnd, *pipeEnd) {
	ab, ba := newPipeBuf(a2b), newPipeBuf(b2a)
	return &pipeEnd{r: ba, w: ab}, &pipeEnd{r: ab, w: ba}
}

func (p *pipeEnd) Read(b []byte) (int, error) {
	p.r.mu.Lock()
	defer p.r.mu.Unlock()
	if len(p.r.buf) == p.r.off && !p.r.closed {
		t := time.Now()
		for len(p.r.buf) == p.r.off && !p.r.closed {
			p.r.cond.Wait()
		}
		d := int64(time.Since(t))
		p.r.own.reader.Add(d)
		p.r.total.reader.Add(d)
	}
	if len(p.r.buf) == p.r.off {
		return 0, io.EOF
	}
	n := copy(b, p.r.buf[p.r.off:])
	p.r.off += n
	if p.r.off == len(p.r.buf) {
		p.r.buf = p.r.buf[:0] // fully drained: reuse the array from the start
		p.r.off = 0
	}
	p.r.cond.Broadcast() // free space for a blocked writer
	return n, nil
}

func (p *pipeEnd) Write(b []byte) (int, error) {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if p.w.closed {
			return total, io.ErrClosedPipe
		}
		if len(p.w.buf)-p.w.off >= pipeBufCap {
			t := time.Now()
			p.w.cond.Wait()
			d := int64(time.Since(t))
			p.w.own.writer.Add(d)
			p.w.total.writer.Add(d)
			continue
		}
		if p.w.off > 0 && cap(p.w.buf)-len(p.w.buf) < len(b) {
			unread := copy(p.w.buf, p.w.buf[p.w.off:])
			p.w.buf = p.w.buf[:unread]
			p.w.off = 0
		}
		room := pipeBufCap - (len(p.w.buf) - p.w.off)
		n := min(len(b), room)
		p.w.buf = append(p.w.buf, b[:n]...)
		b = b[n:]
		total += n
		p.w.cond.Broadcast()
	}
	return total, nil
}

func (p *pipeEnd) Close() error {
	for _, buf := range []*pipeBuf{p.r, p.w} {
		buf.mu.Lock()
		buf.closed = true
		buf.cond.Broadcast()
		buf.mu.Unlock()
	}
	return nil
}

func (p *pipeEnd) LocalAddr() net.Addr                { return pipeAddr{} }
func (p *pipeEnd) RemoteAddr() net.Addr               { return pipeAddr{} }
func (p *pipeEnd) SetDeadline(t time.Time) error      { return nil }
func (p *pipeEnd) SetReadDeadline(t time.Time) error  { return nil }
func (p *pipeEnd) SetWriteDeadline(t time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// endpoint is one side's view of the transport in a traced run: what
// crossed it, and which span is in progress on it, so that a transport
// write can name the call that caused it.
type endpoint struct {
	tr *tracer

	writes     atomic.Int64
	dataWrites atomic.Int64 // writes made inside a Stream.Write; the rest are acks, control and handshake
	writeBytes atomic.Int64

	// txCur is the session API call in progress on the workload's own
	// goroutine on this side (Stream.Write, Handshake, ...).
	txCur atomic.Uint64
}

// tracedConn wraps a transport connection in a traced run. waits is the
// pipe underneath (nil over tcpnet), whose cond.Wait time is subtracted
// from the transport spans.
type tracedConn struct {
	net.Conn
	ep    *endpoint
	waits *pipeEnd

	// busy is the connection's open rx-busy span, owned by whichever
	// goroutine reads the connection (the handshake, then the read
	// loop it starts); rxCur publishes it to writers.
	busy  span
	rxCur atomic.Uint64
}

// parent names the span a transport write belongs to: the API call in
// progress on this side when there is one, else the connection's reader.
// The two overlap only when the application writes while the read loop
// sends an ack (once per 64 KiB received), so the attribution is exact
// on the bulk workloads and off by at most one ack write in 64 on echo.
func (c *tracedConn) parent() spanRef {
	if r := spanRef(c.ep.txCur.Load()); r != 0 {
		return r
	}
	return spanRef(c.rxCur.Load())
}

func (c *tracedConn) Write(b []byte) (int, error) {
	e := c.ep
	parent := c.parent()
	e.writes.Add(1)
	e.writeBytes.Add(int64(len(b)))
	if parent.name() == spanStreamWrite {
		e.dataWrites.Add(1)
	}
	s := e.tr.begin(spanTransportWrite, parent)
	var w0 int64
	if c.waits != nil {
		w0 = c.waits.w.own.writer.Load()
	}
	n, err := c.Conn.Write(b)
	var wait int64
	if c.waits != nil {
		wait = c.waits.w.own.writer.Load() - w0
	}
	e.tr.end(s, wait)
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	e := c.ep
	c.rxCur.Store(0)
	e.tr.end(c.busy, 0)
	c.busy = span{}
	s := e.tr.begin(spanTransportRead, 0)
	var w0 int64
	if c.waits != nil {
		w0 = c.waits.r.own.reader.Load()
	}
	n, err := c.Conn.Read(b)
	var wait int64
	if c.waits != nil {
		wait = c.waits.r.own.reader.Load() - w0
	}
	e.tr.end(s, wait)
	if err == nil {
		c.busy = e.tr.begin(spanRxBusy, 0)
		c.rxCur.Store(uint64(c.busy.ref))
	}
	return n, err
}

// tracedTCPConn forwards the cross-layer methods core looks for on a
// tcpnet.Conn, so that wrapping does not change how the session sizes
// records or aborts paths.
type tracedTCPConn struct {
	tracedConn
	tcp *tcpnet.Conn
}

func (c *tracedTCPConn) CWndInfo() (int, int, int)      { return c.tcp.CWndInfo() }
func (c *tracedTCPConn) SetUserTimeout(d time.Duration) { c.tcp.SetUserTimeout(d) }
func (c *tracedTCPConn) Abort()                         { c.tcp.Abort() }
func (c *tracedTCPConn) SetCongestionControlImpl(ctrl cc.Controller) {
	c.tcp.SetCongestionControlImpl(ctrl)
}

// world is the transport under a workload: the benchmark's pipe, or two
// tcpnet stacks joined by one zero-delay netsim link. Neither crosses a
// real link or a kernel socket, so wall time is CPU cost. Sessions close
// the connections they were given; close ends the rest.
type world struct {
	dialer core.Dialer
	inner  net.Listener
	clock  core.Clock // nil over the pipe (the session uses the real clock)
	raddr  netip.AddrPort

	// client and server are the traced views of the two sides (nil in
	// an untraced run).
	client, server *endpoint

	// netsim only
	net      *netsim.Network
	link     *netsim.Link
	cliStack *tcpnet.Stack
	srvStack *tcpnet.Stack

	// pipe only: blocked time of the two directions, summed over the
	// pipes dialed (the fetch workload dials one per operation).
	c2s, s2c pipeWaits
}

func (w *world) close() {
	w.inner.Close()
	if w.net != nil {
		w.cliStack.Close()
		w.srvStack.Close()
		w.net.Close()
	}
}

// transportCounts is what crossed the transport boundary, counted where
// it happens. The endpoint counts exist in traced runs only.
type transportCounts struct {
	writes, dataWrites, writeBytes int64 // both endpoints
	pipeWriterWait, pipeReaderWait int64 // ns blocked, client-to-server direction
	segsSent, retransmits, dupAcks uint64
	linkDrops                      uint64
	queueHighWater                 int64 // a maximum, not a count
}

func (w *world) counts() transportCounts {
	c := transportCounts{
		pipeWriterWait: w.c2s.writer.Load(),
		pipeReaderWait: w.c2s.reader.Load(),
	}
	for _, e := range []*endpoint{w.client, w.server} {
		if e != nil {
			c.writes += e.writes.Load()
			c.dataWrites += e.dataWrites.Load()
			c.writeBytes += e.writeBytes.Load()
		}
	}
	if w.net != nil {
		for _, st := range []tcpnet.StackStats{w.cliStack.Stats(), w.srvStack.Stats()} {
			c.segsSent += st.SegsSent
			c.retransmits += st.Retransmits
			c.dupAcks += st.DupAcksRcvd
		}
		ls := w.link.Stats()
		c.linkDrops = ls.Drops()
		c.queueHighWater = ls.QueueHighWater
	}
	return c
}

// since returns the counts accumulated after b was taken.
func (c transportCounts) since(b transportCounts) transportCounts {
	c.writes -= b.writes
	c.dataWrites -= b.dataWrites
	c.writeBytes -= b.writeBytes
	c.pipeWriterWait -= b.pipeWriterWait
	c.pipeReaderWait -= b.pipeReaderWait
	c.segsSent -= b.segsSent
	c.retransmits -= b.retransmits
	c.dupAcks -= b.dupAcks
	c.linkDrops -= b.linkDrops
	return c
}

type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeDialer struct {
	w *world
	l *pipeListener
}

func (d pipeDialer) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error) {
	cp, sp := newBufferedPipe(&d.w.c2s, &d.w.s2c)
	var cc, sc net.Conn = cp, sp
	if d.w.client != nil {
		cc = &tracedConn{Conn: cp, ep: d.w.client, waits: cp}
		sc = &tracedConn{Conn: sp, ep: d.w.server, waits: sp}
	}
	select {
	case d.l.ch <- sc:
		return cc, nil
	case <-d.l.done:
		return nil, net.ErrClosed
	}
}

func newPipeWorld(tr *tracer) *world {
	w := &world{raddr: netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), 443)}
	if tr != nil {
		w.client, w.server = &endpoint{tr: tr}, &endpoint{tr: tr}
	}
	// One connection can be queued ahead of Accept, as on a socket backlog.
	l := &pipeListener{ch: make(chan net.Conn, 1), done: make(chan struct{})}
	w.inner = l
	w.dialer = pipeDialer{w: w, l: l}
	return w
}

// tracedTCPListener and tracedTCPDialer wrap the tcpnet connections of
// a traced netsim run.
type tracedTCPListener struct {
	*tcpnet.Listener
	ep *endpoint
}

func (l tracedTCPListener) Accept() (net.Conn, error) {
	c, err := l.Listener.AcceptTCP()
	if err != nil {
		return nil, err
	}
	return &tracedTCPConn{tracedConn: tracedConn{Conn: c, ep: l.ep}, tcp: c}, nil
}

type tracedTCPDialer struct {
	stack *tcpnet.Stack
	ep    *endpoint
}

func (d tracedTCPDialer) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error) {
	c, err := d.stack.Dial(laddr, raddr, timeout)
	if err != nil {
		return nil, err
	}
	return &tracedTCPConn{tracedConn: tracedConn{Conn: c, ep: d.ep}, tcp: c}, nil
}

var (
	netsimClientAddr = netip.MustParseAddr("10.0.0.1")
	netsimServerAddr = netip.MustParseAddr("10.0.0.2")
)

// newNetsimWorld builds client and server hosts joined by one link with
// no bandwidth limit, no delay and no loss, at time scale 1, and a
// tcpnet stack on each: every microsecond spent is CPU in tcpnet, wire,
// netsim, ring or the timing wheel, never emulated waiting.
func newNetsimWorld(seed int64, tr *tracer) (*world, error) {
	n := netsim.New(netsim.WithSeed(seed))
	ch, sh := n.Host("client"), n.Host("server")
	link := n.AddLink(ch, sh, netsimClientAddr, netsimServerAddr, netsim.LinkConfig{Name: "bench"})
	w := &world{
		clock:    n,
		raddr:    netip.AddrPortFrom(netsimServerAddr, 443),
		net:      n,
		link:     link,
		cliStack: tcpnet.NewStack(ch, tcpnet.Config{}),
		srvStack: tcpnet.NewStack(sh, tcpnet.Config{}),
	}
	tl, err := w.srvStack.Listen(netip.Addr{}, 443)
	if err != nil {
		w.cliStack.Close()
		w.srvStack.Close()
		n.Close()
		return nil, err
	}
	if tr != nil {
		w.client, w.server = &endpoint{tr: tr}, &endpoint{tr: tr}
		w.inner = tracedTCPListener{Listener: tl, ep: w.server}
		w.dialer = tracedTCPDialer{stack: w.cliStack, ep: w.client}
	} else {
		w.inner = tl
		w.dialer = tcpnet.Dialer{Stack: w.cliStack}
	}
	return w, nil
}
