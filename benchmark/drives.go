package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
	"github.com/pluginized-protocols/gotcpls/internal/netsim"
	"github.com/pluginized-protocols/gotcpls/internal/record"
	"github.com/pluginized-protocols/gotcpls/internal/ring"
	"github.com/pluginized-protocols/gotcpls/internal/telemetry"
	"github.com/pluginized-protocols/gotcpls/internal/timingwheel"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// A layer drive calls one layer's exported API in a loop, with nothing
// else running, and prices one call. The drives are the same in every
// traced run, whatever the workload.

// drives holds what the drives share. scale sets how long they run: 1
// in a benchmark run (each drive a fraction of a second), far less in
// the smoke test.
type drives struct {
	r     *run
	scale float64
	res   *result
}

func (d *drives) iters(full int) int { return max(int(float64(full)*d.scale), 8) }

// timed runs fn(n) and returns nanoseconds per iteration.
func (d *drives) timed(n int, fn func(n int)) float64 {
	t := time.Now()
	fn(n)
	d.r.progress.Add(1)
	return float64(time.Since(t)) / float64(n)
}

// sink keeps the compiler from discarding a drive's results.
var sink atomic.Int64

// driveConn is the transport under a tls13 drive. It hands the
// handshake through a pipe; afterwards writes go to a discarding or
// capturing sink, and reads come from a replay of captured records, so
// sealing and opening are priced without a peer goroutine.
type driveConn struct {
	net.Conn
	sinking bool   // writes no longer reach the pipe
	capture []byte // sunk writes are kept here when non-nil
	replay  []byte // when non-nil, reads come from here
	written int64
}

func (c *driveConn) Write(b []byte) (int, error) {
	c.written += int64(len(b))
	if !c.sinking {
		return c.Conn.Write(b)
	}
	if c.capture != nil {
		c.capture = append(c.capture, b...)
	}
	return len(b), nil
}

func (c *driveConn) Read(b []byte) (int, error) {
	if c.replay == nil {
		return c.Conn.Read(b)
	}
	if len(c.replay) == 0 {
		return 0, io.EOF
	}
	n := copy(b, c.replay)
	c.replay = c.replay[n:]
	return n, nil
}

// tlsPair is a handshaken tls13 client and server.
type tlsPair struct {
	cli, srv   *tls13.Conn
	cliC, srvC *driveConn
}

// ticketKey is the fixed, non-zero ticket key of the PSK drive. A
// server that builds its tls13.Config per connection (core.Listener
// does) and leaves TicketKey zero draws a new random key per
// connection, and then no ticket ever resumes.
var ticketKey = [32]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
	17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}

// handshake connects a fresh client and server over a pipe and returns
// the pair and how long the client's Handshake call took. The server's
// Config is built per connection, as core.Listener builds it.
func handshake(cert *tls13.Certificate, session *tls13.ClientSession) (*tlsPair, time.Duration, error) {
	var waits pipeWaits
	cp, sp := newBufferedPipe(&waits, &waits)
	p := &tlsPair{cliC: &driveConn{Conn: cp}, srvC: &driveConn{Conn: sp}}
	p.cli = tls13.Client(p.cliC, &tls13.Config{InsecureSkipVerify: true, Session: session})
	p.srv = tls13.Server(p.srvC, &tls13.Config{Certificate: cert, TicketKey: ticketKey})
	srvErr := make(chan error, 1)
	go func() { srvErr <- p.srv.Handshake() }()
	t := time.Now()
	err := p.cli.Handshake()
	d := time.Since(t)
	if err != nil {
		cp.Close() // unblocks the server side
		<-srvErr
		return nil, 0, fmt.Errorf("client handshake: %w", err)
	}
	if err := <-srvErr; err != nil {
		return nil, 0, fmt.Errorf("server handshake: %w", err)
	}
	return p, d, nil
}

// ticket makes the client read one record, which also consumes the
// NewSessionTicket the server sent after its handshake, and returns the
// resumable session.
func (p *tlsPair) ticket() (*tls13.ClientSession, error) {
	go p.srv.Write([]byte("x"))
	var b [8]byte
	if _, err := p.cli.Read(b[:]); err != nil {
		return nil, err
	}
	ss := p.cli.Sessions()
	if len(ss) == 0 {
		return nil, errors.New("no session ticket received")
	}
	return ss[len(ss)-1], nil
}

const driveStream = 1 // the stream context the record drives seal and open under

func (p *tlsPair) addStream() error {
	if err := p.cli.AddStreamContext(driveStream); err != nil {
		return err
	}
	return p.srv.AddStreamContext(driveStream)
}

// chunkParts returns the three parts core's writeChunk hands to the
// record layer for a stream chunk of n data bytes.
func chunkParts(in *inputs, n int) (head, body, tail []byte) {
	c := &record.StreamChunk{StreamID: driveStream, Data: in.at(0, n)}
	h := make([]byte, record.StreamHeaderLen+1)
	record.PutStreamHeader(h, c)
	h[record.StreamHeaderLen] = byte(record.TTypeStreamData)
	return h[:record.StreamHeaderLen], c.Data, h[record.StreamHeaderLen:]
}

// maxChunk is the largest stream chunk one record holds (what core
// calls MaxRecordPayload): the "16k" of the metric names.
const maxChunk = tls13.MaxPlaintext - record.StreamHeaderLen - 1

func (d *drives) tls13Records(cert *tls13.Certificate) error {
	in := d.r.in
	// Sealing: the client writes into a discarding transport.
	p, _, err := handshake(cert, nil)
	if err != nil {
		return err
	}
	if err := p.addStream(); err != nil {
		return err
	}
	p.cliC.sinking = true
	head, body, tail := chunkParts(in, maxChunk)
	var sealErr error
	seal := func(ctx uint32, head, body, tail []byte) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := p.cli.WriteRecordParts(ctx, head, body, tail); err != nil {
					sealErr = err
					return
				}
			}
		}
	}
	n := d.iters(20000)
	seal(driveStream, head, body, tail)(n / 10) // warm the pools
	d.res.set("tls13.seal_16k_ns_per_byte", d.timed(n, seal(driveStream, head, body, tail))/maxChunk)
	batch := make([]tls13.OutRecord, 4)
	for i := range batch {
		batch[i] = tls13.OutRecord{Ctx: driveStream, Head: head, Body: body, Tail: tail}
	}
	d.res.set("tls13.seal_batch4_16k_ns_per_byte", d.timed(n/4, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := p.cli.WriteRecordBatch(batch); err != nil {
				sealErr = err
				return
			}
		}
	})/(4*maxChunk))
	h1, b1, t1 := chunkParts(in, echoSize)
	m0 := mallocs()
	d.res.set("tls13.seal_1k_ns_per_record", d.timed(n, seal(driveStream, h1, b1, t1)))
	sealAllocs := float64(mallocs()-m0) / float64(n)
	if sealErr != nil {
		return fmt.Errorf("seal: %w", sealErr)
	}

	// Opening: rounds of records sealed (untimed) into a capture buffer,
	// then opened (timed) from a replay of it.
	open := func(ctx uint32, dataLen int, batched bool) (nsPerRecord, allocsPerRecord float64, err error) {
		p, _, err := handshake(cert, nil)
		if err != nil {
			return 0, 0, err
		}
		if err := p.addStream(); err != nil {
			return 0, 0, err
		}
		const round = 64
		p.cliC.sinking = true
		p.cliC.capture = make([]byte, 0, round*(tls13.MaxCiphertext+8))
		head, body, tail := chunkParts(in, dataLen)
		recs := make([]tls13.InRecord, 16)
		var total time.Duration
		var allocs uint64
		rounds := max(d.iters(20000)/round, 2)
		for k := 0; k < rounds; k++ {
			p.cliC.capture = p.cliC.capture[:0]
			for i := 0; i < round; i++ {
				if err := p.cli.WriteRecordParts(ctx, head, body, tail); err != nil {
					return 0, 0, err
				}
			}
			p.srvC.replay = p.cliC.capture
			m0 := mallocs()
			t := time.Now()
			for got := 0; got < round; {
				if batched {
					n, err := p.srv.ReadRecordContextBatch(recs)
					if err != nil {
						return 0, 0, err
					}
					for i := 0; i < n; i++ {
						sink.Add(int64(len(recs[i].Payload)))
						bufpool.Put(recs[i].Payload)
					}
					got += n
				} else {
					_, payload, err := p.srv.ReadRecordContext()
					if err != nil {
						return 0, 0, err
					}
					sink.Add(int64(len(payload)))
					bufpool.Put(payload)
					got++
				}
			}
			if k > 0 { // the first round warms the pools
				total += time.Since(t)
				allocs += mallocs() - m0
			}
			d.r.progress.Add(1)
		}
		timedRecs := float64((rounds - 1) * round)
		return float64(total) / timedRecs, float64(allocs) / timedRecs, nil
	}
	stream16, _, err := open(driveStream, maxChunk, false)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	default16, _, err := open(tls13.DefaultContext, maxChunk, false)
	if err != nil {
		return fmt.Errorf("open default context: %w", err)
	}
	batch16, _, err := open(driveStream, maxChunk, true)
	if err != nil {
		return fmt.Errorf("open batch: %w", err)
	}
	open1k, openAllocs, err := open(driveStream, echoSize, false)
	if err != nil {
		return fmt.Errorf("open 1k: %w", err)
	}
	d.res.set("tls13.open_16k_ns_per_byte", stream16/maxChunk)
	d.res.set("tls13.open_16k_default_ctx_ns_per_byte", default16/maxChunk)
	// A stream record is first tried under the default context, fails
	// its tag check, and is opened again under the stream's: the share
	// of the opening cost that trial wastes.
	d.res.set("tls13.trial_open_waste_ratio", 1-default16/stream16)
	d.res.set("tls13.open_batch_16k_ns_per_byte", batch16/maxChunk)
	d.res.set("tls13.open_1k_ns_per_record", open1k)
	d.res.set("tls13.allocs_per_record", sealAllocs+openAllocs)
	return nil
}

func (d *drives) tls13Handshakes(cert *tls13.Certificate) error {
	n := d.iters(300)
	// Full handshakes.
	var h histogram
	var fullFlight int64
	var session *tls13.ClientSession
	warm := max(n/10, 1)
	var cpu0 time.Duration
	var m0 uint64
	for i := 0; i < warm+n; i++ {
		if i == warm {
			cpu0, m0 = processCPU(), mallocs()
		}
		p, dt, err := handshake(cert, nil)
		if err != nil {
			return err
		}
		if p.cli.ConnectionState().Resumed {
			return errors.New("full handshake reports resumption")
		}
		if i >= warm {
			h.record(int64(dt))
		}
		fullFlight = p.srvC.written
		if i == warm+n-1 {
			if session, err = p.ticket(); err != nil {
				return fmt.Errorf("ticket: %w", err)
			}
		}
		p.cliC.Close()
		d.r.progress.Add(1)
	}
	d.res.set("tls13.handshake_full_us", us(h.quantile(0.5)))
	d.res.set("tls13.handshake_full_cpu_us", us(float64(processCPU()-cpu0))/float64(n))
	d.res.set("tls13.handshake_full_allocs", float64(mallocs()-m0)/float64(n))

	// Resumed handshakes, each from the ticket of the one before.
	h.reset()
	var pskFlight int64
	for i := 0; i < warm+n; i++ {
		p, dt, err := handshake(cert, session)
		if err != nil {
			return err
		}
		if !p.cli.ConnectionState().Resumed || !p.srv.ConnectionState().Resumed {
			return errors.New("PSK handshake was not resumed")
		}
		if i >= warm {
			h.record(int64(dt))
		}
		pskFlight = p.srvC.written
		if session, err = p.ticket(); err != nil {
			return fmt.Errorf("ticket: %w", err)
		}
		p.cliC.Close()
		d.r.progress.Add(1)
	}
	// Proof from outside: a resumed server flight carries no
	// Certificate and no CertificateVerify, so it is smaller on the wire.
	if pskFlight >= fullFlight {
		return fmt.Errorf("PSK server flight is %d B, full is %d B: not resumed", pskFlight, fullFlight)
	}
	d.res.set("tls13.handshake_psk_us", us(h.quantile(0.5)))
	d.res.notes = append(d.res.notes, fmt.Sprintf(
		"tls13 server handshake flight: %d B full, %d B resumed", fullFlight, pskFlight))
	return nil
}

func (d *drives) recordCodecs() error {
	in := d.r.in
	n := d.iters(2_000_000)
	// One stream chunk as pathConn frames and parses it: header and
	// TType trailer in, type, header and data view out.
	buf := make([]byte, record.StreamHeaderLen+echoSize+1)
	copy(buf[record.StreamHeaderLen:], in.at(0, echoSize))
	buf[len(buf)-1] = byte(record.TTypeStreamData)
	chunk := &record.StreamChunk{StreamID: driveStream, Data: buf[record.StreamHeaderLen : len(buf)-1]}
	var codecErr error
	m0 := mallocs()
	d.res.set("record.stream_chunk_codec_ns", d.timed(n, func(n int) {
		for i := 0; i < n; i++ {
			chunk.Offset = uint64(i) * echoSize
			record.PutStreamHeader(buf, chunk)
			tt, content, err := record.Decode(buf)
			if err != nil || tt != record.TTypeStreamData {
				codecErr = fmt.Errorf("stream chunk round trip: type %d, %v", tt, err)
				return
			}
			c, err := record.DecodeStreamChunk(content)
			if err != nil || c.Offset != chunk.Offset {
				codecErr = fmt.Errorf("stream chunk round trip: %v", err)
				return
			}
		}
	}))
	d.res.set("record.allocs_per_chunk", float64(mallocs()-m0)/float64(n))
	// One ack frame, the control frame a data transfer sends.
	d.res.set("record.control_codec_ns", d.timed(n/4, func(n int) {
		for i := 0; i < n; i++ {
			b := record.EncodeControl(record.Ack{StreamID: driveStream, Offset: uint64(i)})
			tt, content, err := record.Decode(b)
			if err != nil || tt != record.TTypeControl {
				codecErr = fmt.Errorf("control round trip: type %d, %v", tt, err)
				return
			}
			fs, err := record.DecodeControl(content)
			if err != nil || len(fs) != 1 {
				codecErr = fmt.Errorf("control round trip: %v", err)
				return
			}
		}
	}))
	// The two handshake extensions of a new session.
	cookies := make([][]byte, 8)
	for i := range cookies {
		cookies[i] = in.at(int64(i)*16, 16)
	}
	srv := &record.ServerTCPLS{Version: record.Version, ConnID: 7, Cookies: cookies,
		Addresses: []record.Advertisement{{Addr: netsimServerAddr, Port: 443, Primary: true}}}
	cli := &record.ClientHelloTCPLS{Version: record.Version, Multipath: true}
	d.res.set("record.hello_ext_codec_ns", d.timed(n/16, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := record.DecodeClientHelloTCPLS(cli.Encode()); err != nil {
				codecErr = err
				return
			}
			if _, err := record.DecodeServerTCPLS(srv.Encode()); err != nil {
				codecErr = err
				return
			}
		}
	}))
	return codecErr
}

// tcpnetBulk moves bytes over a raw tcpnet connection pair on the
// zero-delay link, with no TLS above it.
func (d *drives) tcpnetBulk() error {
	w, err := newNetsimWorld(d.r.cfg.seed, nil)
	if err != nil {
		return err
	}
	defer w.close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := w.inner.Accept()
		ch <- accepted{c, err}
	}()
	cc, err := w.dialer.Dial(netip.Addr{}, w.raddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer cc.Close()
	a := <-ch
	if a.err != nil {
		return a.err
	}
	defer a.c.Close()

	total := int64(d.iters(1024)) * bulkWrite
	transfer := func(total int64) error {
		rx := make(chan error, 1)
		go func() {
			buf := make([]byte, bulkWrite)
			var off int64
			for off < total {
				n, err := a.c.Read(buf)
				if n > 0 && !d.r.verify(buf[:n], off) {
					rx <- fmt.Errorf("corrupt delivery at offset %d", off)
					return
				}
				off += int64(n)
				d.r.progress.Add(1)
				if err != nil {
					rx <- err
					return
				}
			}
			rx <- nil
		}()
		for off := int64(0); off < total; off += bulkWrite {
			if _, err := cc.Write(d.r.in.at(off, bulkWrite)); err != nil {
				return err
			}
		}
		return <-rx
	}
	if err := transfer(total / 8); err != nil { // open the congestion window, fill the pools
		return err
	}
	c0, cpu0, m0 := w.counts(), processCPU(), mallocs()
	// The payload offsets restart at zero: the receiver compares each
	// transfer against the block from its own start.
	if err := transfer(total); err != nil {
		return err
	}
	c := w.counts().since(c0)
	d.res.set("tcpnet.bulk_ns_per_byte", float64(processCPU()-cpu0)/float64(total))
	d.res.set("tcpnet.bulk_allocs_per_segment", float64(mallocs()-m0)/float64(max(c.segsSent, 1)))
	return nil
}

const driveProto = 253 // an experimental IP protocol number: nothing else handles it

func (d *drives) netsimLink() error {
	n := netsim.New(netsim.WithSeed(d.r.cfg.seed))
	defer n.Close()
	a, b := n.Host("a"), n.Host("b")
	link := n.AddLink(a, b, netsimClientAddr, netsimServerAddr, netsim.LinkConfig{Name: "drive"})
	var delivered atomic.Int64
	b.Register(driveProto, func(p *wire.Packet) {
		bufpool.Put(p.Payload)
		delivered.Add(1)
	})
	const burst = 32
	pkts := make([]*wire.Packet, burst)
	var sent int64
	send := func(rounds int) {
		for k := 0; k < rounds; k++ {
			for i := range pkts {
				pkts[i] = &wire.Packet{Src: netsimClientAddr, Dst: netsimServerAddr, Proto: driveProto,
					TTL: 64, Payload: bufpool.Get(1460)}
			}
			if err := a.SendBatch(pkts); err != nil {
				return
			}
			sent += burst
			// One burst in flight: the link's ring never overflows.
			for delivered.Load() < sent {
				runtime.Gosched()
			}
		}
	}
	rounds := d.iters(200000) / burst
	send(rounds / 10)
	d.res.set("netsim.link_ns_per_packet", d.timed(rounds, send)/burst)
	if st := link.Stats(); st.Drops() != 0 || delivered.Load() != sent {
		return fmt.Errorf("link drive: sent %d, delivered %d, dropped %d", sent, delivered.Load(), st.Drops())
	}
	return nil
}

func (d *drives) small() error {
	// wire: one full-size data segment, marshal with checksum, then
	// unmarshal with the checksum verified.
	seg := &wire.Segment{SrcPort: 49152, DstPort: 443, Seq: 1, Ack: 1, Flags: wire.FlagACK | wire.FlagPSH,
		Window: 65535, Payload: d.r.in.at(0, 1460-wire.BaseHeaderLen)}
	buf := make([]byte, 1460)
	var err error
	d.res.set("wire.segment_codec_ns", d.timed(d.iters(200_000), func(n int) {
		for i := 0; i < n; i++ {
			seg.Seq = uint32(i)
			if _, err = seg.MarshalInto(buf, netsimClientAddr, netsimServerAddr); err != nil {
				return
			}
			var s *wire.Segment
			if s, err = wire.UnmarshalSegment(buf, netsimClientAddr, netsimServerAddr, true); err != nil {
				return
			}
			sink.Add(int64(s.Seq))
		}
	}))
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}

	q := ring.New[int](1024)
	d.res.set("ring.push_pop_ns", d.timed(d.iters(10_000_000), func(n int) {
		for i := 0; i < n; i++ {
			q.TryPush(i)
			v, _ := q.Pop()
			sink.Add(int64(v))
		}
	}))

	// The wheel in manual mode: no driver goroutine, time moves only
	// when the drive advances it.
	wh := timingwheel.New(50 * time.Microsecond)
	var live timingwheel.Timer
	var fired atomic.Int64
	fn := func() { fired.Add(1) }
	wh.Schedule(&live, 200*time.Millisecond, fn)
	d.res.set("timingwheel.rearm_ns", d.timed(d.iters(10_000_000), func(n int) {
		for i := 0; i < n; i++ {
			wh.Schedule(&live, 200*time.Millisecond, fn)
		}
	}))
	live.Stop()
	timers := make([]timingwheel.Timer, d.iters(200_000))
	for i := range timers {
		// Spread over a second of ticks, like a population of RTO timers.
		wh.Schedule(&timers[i], time.Duration(1+i%20000)*50*time.Microsecond, fn)
	}
	fired.Store(0)
	d.res.set("timingwheel.advance_ns_per_timer", d.timed(len(timers), func(int) {
		wh.AdvanceTo(wh.Cur() + 20001)
	}))
	if int(fired.Load()) != len(timers) {
		return fmt.Errorf("timing wheel fired %d of %d timers", fired.Load(), len(timers))
	}

	d.res.set("bufpool.get_put_ns", d.timed(d.iters(10_000_000), func(n int) {
		for i := 0; i < n; i++ {
			bufpool.Put(bufpool.Get(16 << 10))
		}
	}))

	fr := telemetry.NewFlightRecorder(0) // the per-session default size
	d.res.set("telemetry.flight_record_ns", d.timed(d.iters(10_000_000), func(n int) {
		for i := 0; i < n; i++ {
			fr.Record(telemetry.Event{Kind: telemetry.EvRecordSent, Path: 1, Stream: driveStream,
				A: echoSize, B: int64(i)})
		}
	}))
	return nil
}

// layersFromDrives runs every drive and records its metrics. A drive
// that fails fails the run: its checks are correctness checks.
func (res *result) layersFromDrives(r *run, scale float64) {
	d := &drives{r: r, scale: scale, res: res}
	cert, err := tls13.GenerateSelfSigned("benchmark", nil, nil)
	if err != nil {
		r.fail("drives: certificate: %v", err)
		return
	}
	for _, drive := range []struct {
		name string
		run  func() error
	}{
		{"tls13 records", func() error { return d.tls13Records(cert) }},
		{"tls13 handshakes", func() error { return d.tls13Handshakes(cert) }},
		{"record codecs", d.recordCodecs},
		{"tcpnet bulk", d.tcpnetBulk},
		{"netsim link", d.netsimLink},
		{"wire, ring, timingwheel, bufpool, telemetry", d.small},
	} {
		if err := drive.run(); err != nil {
			r.fail("drive %s: %v", drive.name, err)
		}
	}
}
