package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/core"
	"github.com/pluginized-protocols/gotcpls/internal/tls13"
)

// Operation sizes. They are part of the workload names.
const (
	bulkWrite  = 64 << 10 // what labs.ServeDownload and io.Copy-style applications write
	echoSize   = 1 << 10
	fetchReply = 16 << 10
)

// inputs are everything a workload sends, generated from the seed. The
// payload is one seeded block repeated; every operation sends the slice
// at its running offset, and every receiver compares what it read with
// the block at the same offset. The block length is odd, so no two
// writes of a run start at the same position in it and a record
// delivered at the wrong offset cannot compare equal.
type inputs struct {
	rep []byte // the block, followed by its own first bulkWrite bytes
}

const blockLen = 192<<10 + 1

func newInputs(seed int64) *inputs {
	rep := make([]byte, blockLen+bulkWrite)
	rand.New(rand.NewSource(seed)).Read(rep[:blockLen])
	copy(rep[blockLen:], rep[:bulkWrite])
	return &inputs{rep: rep}
}

// at returns the n payload bytes at stream offset off (n <= bulkWrite).
func (in *inputs) at(off int64, n int) []byte {
	o := off % blockLen
	return in.rep[o : o+int64(n)]
}

// stack is what every workload sets up first: certificate, world and
// TCPLS listener.
type stack struct {
	w   *world
	lst *core.Listener
}

func newStack(r *run, netsimWorld bool) (*stack, error) {
	cert, err := tls13.GenerateSelfSigned("benchmark", nil, nil)
	if err != nil {
		return nil, fmt.Errorf("certificate: %w", err)
	}
	var w *world
	if netsimWorld {
		if w, err = newNetsimWorld(r.cfg.seed, r.tr); err != nil {
			return nil, fmt.Errorf("netsim world: %w", err)
		}
	} else {
		w = newPipeWorld(r.tr)
	}
	lst := core.NewListener(w.inner, &core.Config{
		TLS:   &tls13.Config{Certificate: cert},
		Clock: w.clock,
	})
	r.world = w
	return &stack{w: w, lst: lst}, nil
}

func (s *stack) close() {
	s.lst.Close()
	s.w.close()
}

// dial runs the client side of a session: NewClient, Connect and a full
// (non-resumed) Handshake. before is called ahead of each step so the
// fetch workload can time them as phases.
func (s *stack) dial(before func(spanName)) (*core.Session, error) {
	before(spanConnect)
	cli := core.NewClient(&core.Config{
		TLS:   &tls13.Config{InsecureSkipVerify: true},
		Clock: s.w.clock,
	}, s.w.dialer)
	if _, err := cli.Connect(netip.Addr{}, s.w.raddr, 5*time.Second); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	before(spanHandshake)
	if err := cli.Handshake(); err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	return cli, nil
}

func noPhase(spanName) {}

// session opens one session and returns both ends.
func (s *stack) session() (cli, srv *core.Session, err error) {
	type accepted struct {
		s   *core.Session
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		srv, err := s.lst.Accept()
		ch <- accepted{srv, err}
	}()
	if cli, err = s.dial(noPhase); err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		cli.Close()
		return nil, nil, fmt.Errorf("accept: %w", a.err)
	}
	return cli, a.s, nil
}

// pair is a stack with one session open on it: what the streaming
// workloads run on.
type pair struct {
	st       *stack
	cli, srv *core.Session
}

func (p *pair) open(r *run, netsimWorld bool) (err error) {
	if p.st, err = newStack(r, netsimWorld); err != nil {
		return err
	}
	p.cli, p.srv, err = p.st.session()
	return err
}

func (p *pair) teardown() {
	if p.cli != nil {
		p.cli.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	if p.st != nil {
		p.st.close()
	}
}

// api opens a span around a session API call made by one of the
// workload's goroutines and publishes it on that side's endpoint, so
// the transport writes the call causes become its children.
func (r *run) api(ep *endpoint, name spanName) span {
	if !r.tr.enabled() {
		return span{}
	}
	s := r.tr.begin(name, 0)
	ep.txCur.Store(uint64(s.ref))
	return s
}

func (r *run) apiEnd(ep *endpoint, s span) int64 {
	if s.ref == 0 {
		return 0
	}
	ep.txCur.Store(0)
	return r.tr.end(s, 0)
}

// verify compares delivered bytes with the payload at the same offset.
func (r *run) verify(got []byte, off int64) bool {
	s := r.tr.begin(spanVerify, 0)
	ok := bytes.Equal(got, r.in.at(off, len(got)))
	r.tr.end(s, 0)
	return ok
}

// await waits for a result from one of the workload's goroutines, but
// not longer than the watchdog would.
func await(r *run, ch <-chan error, what string) error {
	select {
	case err := <-ch:
		return err
	case <-time.After(r.cfg.stall):
		return r.fail("%s: no result within %v", what, r.cfg.stall)
	}
}

// bulk is bulk_pipe_64k and bulk_netsim_64k: one stream, the client
// writes 64 KiB chunks, the server reads and verifies every byte.
type bulk struct {
	pair
	netsim   bool
	stream   *core.Stream
	written  int64
	rxDone   chan error
	received int64 // set by the receiver before it reports on rxDone
}

func (b *bulk) setup(r *run) (err error) {
	if err = b.open(r, b.netsim); err != nil {
		return err
	}
	if b.stream, err = b.cli.NewStream(); err != nil {
		return err
	}
	b.written = 0
	b.rxDone = make(chan error, 1)
	before := r.bytes.Load()
	go b.receive(r, b.srv, b.rxDone)
	if err := b.op(r, 0); err != nil {
		return err
	}
	// The first operation is complete when the receiver has verified it.
	deadline := time.Now().Add(r.cfg.stall)
	for r.bytes.Load()-before < bulkWrite {
		if r.aborted.Load() || time.Now().After(deadline) {
			return errors.New("first write was not delivered")
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

func (b *bulk) receive(r *run, srv *core.Session, done chan<- error) {
	st, err := srv.AcceptStream()
	if err != nil {
		done <- err
		return
	}
	buf := make([]byte, bulkWrite)
	var off int64
	for {
		s := r.tr.begin(spanStreamRead, 0)
		n, err := st.Read(buf)
		r.tr.end(s, 0)
		if n > 0 {
			if !r.verify(buf[:n], off) {
				done <- r.fail("corrupt delivery in [%d,%d)", off, off+int64(n))
				return
			}
			off += int64(n)
			r.bytes.Add(int64(n))
		}
		if err == io.EOF {
			b.received = off
			done <- nil
			return
		}
		if err != nil {
			done <- err
			return
		}
	}
}

func (b *bulk) op(r *run, i int64) error {
	ep := b.st.w.client
	s := r.api(ep, spanStreamWrite)
	n, err := b.stream.Write(r.in.at(b.written, bulkWrite))
	r.apiEnd(ep, s)
	b.written += int64(n)
	if err != nil {
		return err
	}
	if n != bulkWrite {
		return fmt.Errorf("short write: %d of %d", n, bulkWrite)
	}
	return nil
}

func (b *bulk) finish(r *run) error {
	if err := b.stream.Close(); err != nil {
		return err
	}
	if err := await(r, b.rxDone, "receiver"); err != nil {
		return err
	}
	if b.received != b.written {
		return r.fail("receiver verified %d bytes, sender wrote %d", b.received, b.written)
	}
	return nil
}

// echo is echo_pipe_1k: one stream, a 1 KiB request answered by a 1 KiB
// echo, one outstanding.
type echo struct {
	pair
	stream  *core.Stream
	sent    int64
	reply   []byte
	srvDone chan error
}

func (e *echo) setup(r *run) (err error) {
	if err = e.open(r, false); err != nil {
		return err
	}
	if e.stream, err = e.cli.NewStream(); err != nil {
		return err
	}
	e.sent = 0
	e.reply = make([]byte, echoSize)
	e.srvDone = make(chan error, 1)
	go e.serve(r, e.srv, e.srvDone)
	return e.op(r, 0)
}

func (e *echo) serve(r *run, srv *core.Session, done chan<- error) {
	st, err := srv.AcceptStream()
	if err != nil {
		done <- err
		return
	}
	ep := e.st.w.server
	buf := make([]byte, echoSize)
	for {
		s := r.tr.begin(spanStreamRead, 0)
		_, err := io.ReadFull(st, buf)
		r.tr.end(s, 0)
		if err == io.EOF {
			done <- st.Close()
			return
		}
		if err != nil {
			done <- err
			return
		}
		s = r.api(ep, spanStreamWrite)
		_, err = st.Write(buf)
		r.apiEnd(ep, s)
		if err != nil {
			done <- err
			return
		}
	}
}

func (e *echo) op(r *run, i int64) error {
	ep := e.st.w.client
	req := r.in.at(e.sent, echoSize)
	s := r.api(ep, spanStreamWrite)
	_, err := e.stream.Write(req)
	r.apiEnd(ep, s)
	if err != nil {
		return err
	}
	s = r.tr.begin(spanStreamRead, 0)
	_, err = io.ReadFull(e.stream, e.reply)
	r.tr.end(s, 0)
	if err != nil {
		return fmt.Errorf("reply: %w", err)
	}
	if !r.verify(e.reply, e.sent) {
		return fmt.Errorf("reply differs from request at offset %d", e.sent)
	}
	e.sent += echoSize
	r.bytes.Add(2 * echoSize) // request and reply: the comparison verifies both
	return nil
}

func (e *echo) finish(r *run) error {
	if err := e.stream.Close(); err != nil {
		return err
	}
	return await(r, e.srvDone, "echo server")
}

// fetch is fetch_pipe_16k: every operation is a whole session — client
// NewClient, Connect, full Handshake, a request stream ("GET" and the
// payload offset wanted, then close), a 16 KiB reply on a stream the
// server opens, verified, and Close; server Accept, AcceptStream,
// NewStream, Close.
type fetch struct {
	st      *stack
	buf     []byte
	srvDone chan error
	// phases times each step of an operation in a traced run.
	phases [numSpanNames]histogram
}

const fetchRequestLen = 3 + 8

func (f *fetch) setup(r *run) (err error) {
	if f.st, err = newStack(r, false); err != nil {
		return err
	}
	f.buf = make([]byte, fetchReply+1)
	f.srvDone = make(chan error, 1)
	go f.serve(r, f.st.lst, f.srvDone)
	return f.op(r, 0)
}

// serve answers one session at a time until the listener closes.
func (f *fetch) serve(r *run, lst *core.Listener, done chan<- error) {
	ep := f.st.w.server
	var req [fetchRequestLen + 1]byte
	for {
		srv, err := lst.Accept()
		if err != nil {
			done <- nil // listener closed: the run is over
			return
		}
		err = func() error {
			defer srv.Close()
			in, err := srv.AcceptStream()
			if err != nil {
				return err
			}
			// The request ends with the stream: read one byte past it.
			if n, err := io.ReadFull(in, req[:]); err != io.ErrUnexpectedEOF || n != fetchRequestLen {
				return fmt.Errorf("request: %d bytes, %v", n, err)
			}
			if string(req[:3]) != "GET" {
				return fmt.Errorf("request: %q", req[:3])
			}
			off := int64(binary.BigEndian.Uint64(req[3:]))
			out, err := srv.NewStream()
			if err != nil {
				return err
			}
			s := r.api(ep, spanStreamWrite)
			_, err = out.Write(r.in.at(off, fetchReply))
			r.apiEnd(ep, s)
			if err != nil {
				return err
			}
			if err := out.Close(); err != nil {
				return err
			}
			// The client ends the session; wait for that, so the reply
			// is not cut short by closing under it.
			if _, err := srv.AcceptStream(); err == nil {
				return errors.New("client opened a second stream")
			}
			return nil
		}()
		if err != nil {
			r.fail("fetch server: %v", err)
			done <- err
			return
		}
	}
}

func (f *fetch) op(r *run, i int64) error {
	ep := f.st.w.client
	var cur span
	var curName spanName
	// phase ends the step in progress and starts the next one. The
	// steps that wait for the server are not published as the call in
	// progress: a write made meanwhile is the read loop's.
	phase := func(name spanName) {
		if !r.tr.enabled() {
			return
		}
		if curName != spanNone {
			f.phases[curName].record(r.apiEnd(ep, cur))
		}
		curName = name
		switch name {
		case spanNone:
		case spanFirstByte, spanResponse:
			cur = r.tr.begin(name, 0)
		default:
			cur = r.api(ep, name)
		}
	}
	defer phase(spanNone)

	cli, err := f.st.dial(phase)
	if err != nil {
		return err
	}
	defer cli.Close()

	phase(spanRequest)
	off := i * fetchReply
	req, err := cli.NewStream()
	if err != nil {
		return err
	}
	var msg [fetchRequestLen]byte
	copy(msg[:], "GET")
	binary.BigEndian.PutUint64(msg[3:], uint64(off))
	if _, err := req.Write(msg[:]); err != nil {
		return err
	}
	if err := req.Close(); err != nil {
		return err
	}

	phase(spanFirstByte)
	down, err := cli.AcceptStream()
	if err != nil {
		return fmt.Errorf("reply stream: %w", err)
	}
	n, err := down.Read(f.buf)
	phase(spanResponse)
	for err == nil && n < len(f.buf) {
		var m int
		m, err = down.Read(f.buf[n:])
		n += m
	}
	if err != io.EOF {
		return fmt.Errorf("reply: %d bytes, %v", n, err)
	}
	if n != fetchReply {
		return fmt.Errorf("reply: %d bytes, want %d", n, fetchReply)
	}
	if !r.verify(f.buf[:n], off) {
		return fmt.Errorf("reply differs from payload at offset %d", off)
	}

	phase(spanClose)
	if err := cli.Close(); err != nil {
		return err
	}
	r.bytes.Add(fetchReply)
	return nil
}

func (f *fetch) finish(r *run) error {
	f.st.lst.Close()
	return await(r, f.srvDone, "fetch server")
}

func (f *fetch) teardown() {
	if f.st != nil {
		f.st.close()
	}
}

var workloadNames = []string{"bulk_pipe_64k", "echo_pipe_1k", "fetch_pipe_16k", "bulk_netsim_64k"}

func newWorkload(name string) workload {
	switch name {
	case "bulk_pipe_64k":
		return &bulk{}
	case "echo_pipe_1k":
		return &echo{}
	case "fetch_pipe_16k":
		return &fetch{}
	case "bulk_netsim_64k":
		return &bulk{netsim: true}
	}
	return nil
}
