package tcpls_test

// Steady-state data-path throughput over an in-memory transport. Unlike
// the netsim benchmarks in bench_test.go, which report virtual-time
// protocol metrics, these two measure the CPU cost of the stack itself —
// stream framing, per-stream AEAD, record parsing, reassembly — with no
// emulated link in the way, so wall-clock MB/s and allocs/op are the
// figures of merit. They are the tier-1 benchmarks tracked by
// `make bench` / `make bench-check` (see EXPERIMENTS.md).

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tcpls "github.com/pluginized-protocols/gotcpls"
)

// pipeListener hands the server ends of buffered pipes to a TCPLS
// listener; pipeDialer creates the pairs. Together they stand in for a
// TCP stack with zero link cost.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn, 4), done: make(chan struct{})}
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

type pipeDialer struct{ l *pipeListener }

func (d pipeDialer) Dial(laddr netip.Addr, raddr netip.AddrPort, timeout time.Duration) (net.Conn, error) {
	cp, sp := newBufferedPipe()
	select {
	case d.l.ch <- sp:
		return cp, nil
	case <-d.l.done:
		return nil, net.ErrClosed
	}
}

func BenchmarkStreamThroughput1K(b *testing.B)  { benchStreamThroughput(b, 1<<10, 0) }
func BenchmarkStreamThroughput16K(b *testing.B) { benchStreamThroughput(b, 16<<10, 0) }

// BenchmarkStreamThroughput64K and BenchmarkEcho1K are the shapes of the
// repository benchmark's bulk_pipe_64k and echo_pipe_1k workloads (64 KiB
// writes at the default record size; a 1 KiB request answered by a 1 KiB
// echo, one outstanding) as Go benchmarks, so that `make profile
// WORKLOAD=BenchmarkStreamThroughput64K` can put a CPU profile beside a
// claim made on those workloads — benchmark/ itself takes no -cpuprofile.
func BenchmarkStreamThroughput64K(b *testing.B) { benchStreamThroughput(b, 64<<10, 0) }

func BenchmarkEcho1K(b *testing.B) {
	cli, srv := benchSessions(b, 0)
	st, err := cli.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		sst, err := srv.AcceptStream()
		if err != nil {
			return
		}
		buf := make([]byte, 1<<10)
		for {
			if _, err := io.ReadFull(sst, buf); err != nil {
				return
			}
			if _, err := sst.Write(buf); err != nil {
				return
			}
		}
	}()
	req, reply := make([]byte, 1<<10), make([]byte, 1<<10)
	for i := range req {
		req[i] = byte(i)
	}
	roundTrip := func() {
		if _, err := st.Write(req); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(st, reply); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip() // establishes the stream and fills the layer caches
	b.ReportAllocs()
	b.SetBytes(2 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkRecordSizeSweep reproduces the shape of the paper's Figure 2:
// goodput as a function of record size at a fixed window. Each sub-bench
// pushes the same 256 KiB writes through the stack with the stream-chunk
// size pinned via Config.RecordSize, so the sweep isolates per-record
// overhead (framing, AEAD setup, record parsing) from copy costs. The
// 64K point exercises the clamp to MaxRecordPayload — TLS caps records
// at 16 KiB of plaintext, so 64K measures "as large as the protocol
// allows", exactly the paper's right-hand asymptote.
func BenchmarkRecordSizeSweep(b *testing.B) {
	const writeSize = 256 << 10
	for _, rs := range []int{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("record=%dK", rs>>10), func(b *testing.B) {
			benchStreamThroughput(b, writeSize, rs)
		})
	}
}

// benchSessions opens one session over the in-memory pipe and returns
// both ends; the benchmark's cleanup closes them.
func benchSessions(b *testing.B, recordSize int) (cli, srv *tcpls.Session) {
	pl := newPipeListener()
	lst := tcpls.NewListener(pl, &tcpls.Config{
		TLS: &tcpls.TLSConfig{Certificate: benchCert},
	})
	b.Cleanup(func() { lst.Close() })

	srvCh := make(chan *tcpls.Session, 1)
	go func() {
		s, err := lst.Accept()
		if err != nil {
			return
		}
		srvCh <- s
	}()

	cli = tcpls.NewClient(&tcpls.Config{
		TLS:        &tcpls.TLSConfig{InsecureSkipVerify: true},
		RecordSize: recordSize,
	}, pipeDialer{l: pl})
	b.Cleanup(func() { cli.Close() })
	raddr := netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), 443)
	if _, err := cli.Connect(netip.Addr{}, raddr, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	if err := cli.Handshake(); err != nil {
		b.Fatal(err)
	}
	return cli, <-srvCh
}

func benchStreamThroughput(b *testing.B, size, recordSize int) {
	cli, srv := benchSessions(b, recordSize)
	st, err := cli.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, size)
	for i := range chunk {
		chunk[i] = byte(i)
	}

	// Drain on the server and count delivered bytes so the timed region
	// covers true end-to-end delivery, not just enqueue-side writes.
	var delivered atomic.Int64
	go func() {
		sst, err := srv.AcceptStream()
		if err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := sst.Read(buf)
			delivered.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	// One warm-up chunk establishes the stream on the server and fills
	// the layer caches (pools, scratch buffers) before measuring.
	if _, err := st.Write(chunk); err != nil {
		b.Fatal(err)
	}
	waitDelivered(b, &delivered, int64(size))

	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
	waitDelivered(b, &delivered, int64(size)*int64(b.N+1))
	b.StopTimer()

	if err := st.Close(); err != nil && err != io.EOF {
		b.Logf("stream close: %v", err)
	}
}

// waitDelivered spins (politely) until the reader has seen want bytes.
func waitDelivered(b *testing.B, delivered *atomic.Int64, want int64) {
	deadline := time.Now().Add(2 * time.Minute)
	for delivered.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("receiver stalled: got %d of %d bytes", delivered.Load(), want)
		}
		time.Sleep(20 * time.Microsecond)
	}
}
