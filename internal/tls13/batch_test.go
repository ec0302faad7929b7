package tls13

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
)

// rwPair glues a separate Reader and Writer into the io.ReadWriter the
// record layer wants.
type rwPair struct {
	io.Reader
	io.Writer
}

// fixedKeyLayer builds a record layer with deterministic keys over the
// given transport, plus matching stream contexts — the fixture for
// differential wire comparisons, where both sides must share exact
// cipher state without a (randomized) handshake.
func fixedKeyLayer(rw io.ReadWriter, streamIDs ...uint32) *recordLayer {
	key := bytes.Repeat([]byte{0x42}, 16)
	iv := bytes.Repeat([]byte{0x24}, 12)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	rl := &recordLayer{rw: rw}
	rl.out.aead, rl.out.iv = gcm, iv
	rl.in.aead, rl.in.iv = gcm, iv
	for _, id := range streamIDs {
		sIV := bytes.Repeat([]byte{byte(id) ^ 0x5a}, 12)
		rl.out.addContext(id, sIV)
		rl.in.addContext(id, sIV)
	}
	return rl
}

// randomRecords generates a batch with adversarial shape variety:
// empty, tiny, cwnd-sized and limit-sized payloads, random part splits
// and random context selection.
func randomRecords(rng *rand.Rand, n int, ctxs []uint32) []OutRecord {
	recs := make([]OutRecord, n)
	for i := range recs {
		var size int
		switch rng.Intn(6) {
		case 0:
			size = rng.Intn(4) // empty-ish
		case 1:
			size = MaxPlaintext - rng.Intn(4) // at the record limit
		case 2:
			size = 4096 // the cwnd-matched shape core produces
		default:
			size = rng.Intn(2000) + 1
		}
		payload := make([]byte, size)
		rng.Read(payload)
		// Random three-way split into head|body|tail.
		a := rng.Intn(size + 1)
		b := a + rng.Intn(size-a+1)
		recs[i] = OutRecord{
			Ctx:  ctxs[rng.Intn(len(ctxs))],
			Head: payload[:a],
			Body: payload[a:b],
			Tail: payload[b:],
		}
	}
	return recs
}

// goldenPat is the deterministic payload of the golden-vector records.
func goldenPat(n, salt int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + salt)
	}
	return b
}

// TestGoldenWire pins the wire image of the one record path. The vectors
// were produced by the single-record writer this path replaced
// (writeRecord/writeSealed/writeRecordContextParts, one call per record,
// fixedKeyLayer keys, the cases written in this order on one layer so the
// sequence numbers carry over): default context, stream context, an empty
// record, a mixed-context batch of 15 that exactly fits the staging
// buffer, and a batch that spills it. Written here as one batch per case,
// every byte must still be what the single path put on the wire.
func TestGoldenWire(t *testing.T) {
	var batch15, spill []OutRecord
	ctxs := []uint32{3, 9, DefaultContext}
	for i := 0; i < 15; i++ {
		batch15 = append(batch15, OutRecord{Ctx: ctxs[i%3], Head: goldenPat(13, i), Body: goldenPat(4096, 2*i), Tail: []byte{2}})
	}
	for i := 0; i < 6; i++ {
		spill = append(spill, OutRecord{Ctx: 3, Head: goldenPat(13, 40+i), Body: goldenPat(MaxPlaintext-14, 50+i), Tail: []byte{2}})
	}
	cases := []struct {
		name   string
		recs   []OutRecord
		size   int
		sha256 string
		hex    string // the whole wire image, where it is short enough to read
	}{
		{"default-one", []OutRecord{{Ctx: DefaultContext, Head: goldenPat(8, 1), Body: goldenPat(100, 2), Tail: []byte{1}}}, 131,
			"3a365673823ebe2f4ae33208bb096067b350abd0d560498697cfc7997359f720",
			"170303007ee0a06439669afb7e921536c5b7e6c60abb4d704a56ada4318610e4188cf6a5815c28842f64446ac4e33b16900477b34fd19d12d305795ecfd2d5f6850bab726c87cdfe5eab5df66aae419913286336660b6de4f0640b27fa247f846c08d9706b63783aafb4e436d17ed38f3a47ba599c85c675b7f9ed508335e661142f88"},
		{"stream-one", []OutRecord{{Ctx: 3, Head: goldenPat(13, 3), Body: goldenPat(1024, 4), Tail: []byte{2}}}, 1060,
			"b828ecf630aa89aa472ee1da6b1276a6115124713cf28e2598f3e71e3d63642e", ""},
		{"empty-default", []OutRecord{{Ctx: DefaultContext}}, 22,
			"d1609ba49688369e7ded4c81dce328de448c4ca07bd0eed116ef902f268d20ba",
			"1703030011a8c450685eb39969dffbced4414af945a4"},
		{"batch15", batch15, 61980,
			"2051d6c8f8eaddaaa257bdba9ce4bb4ea08d0eb2ca55a5b4b56fada707785c31", ""},
		{"spill", spill, 98436,
			"f954480ef100c6f7032f43775a840cbc27e18c5386ff159185040df2b637bb57", ""},
	}
	var wire countingBuffer
	rl := fixedKeyLayer(&wire, 3, 9)
	rlR := fixedKeyLayer(&wire, 3, 9)
	for _, c := range cases {
		wire.Reset()
		wire.writes = 0
		if n, err := rl.writeSealed(c.recs, RecordTypeApplicationData); n != len(c.recs) || err != nil {
			t.Fatalf("%s: sealed %d of %d: %v", c.name, n, len(c.recs), err)
		}
		if wire.Len() != c.size {
			t.Fatalf("%s: %d wire bytes, want %d", c.name, wire.Len(), c.size)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(wire.Bytes())); got != c.sha256 {
			t.Fatalf("%s: wire image changed: sha256 %s, want %s", c.name, got, c.sha256)
		}
		if c.hex != "" && fmt.Sprintf("%x", wire.Bytes()) != c.hex {
			t.Fatalf("%s: wire image %x, want %s", c.name, wire.Bytes(), c.hex)
		}
		// One transport write for whatever fits the staging buffer; the
		// spill flushes once on the way (three max-size records fit).
		if want := (c.size + batchBufCap - 1) / batchBufCap; wire.writes != want {
			t.Fatalf("%s: %d transport writes, want %d", c.name, wire.writes, want)
		}
		for i, want := range c.recs {
			id, typ, payload, err := rlR.readRecordAny()
			if err != nil || typ != RecordTypeApplicationData || id != want.Ctx {
				t.Fatalf("%s record %d: ctx %d type %d: %v", c.name, i, id, typ, err)
			}
			if full := slices.Concat(want.Head, want.Body, want.Tail); !bytes.Equal(payload, full) {
				t.Fatalf("%s record %d: payload mismatch (%d vs %d bytes)", c.name, i, len(payload), len(full))
			}
			bufpool.Put(payload)
		}
	}
}

// countingBuffer is a bytes.Buffer that counts the writes made to it.
type countingBuffer struct {
	bytes.Buffer
	writes int
}

func (b *countingBuffer) Write(p []byte) (int, error) {
	b.writes++
	return b.Buffer.Write(p)
}

// TestBatchSplitInvariant is the property the golden vectors sample: the
// wire image depends on the records and their order, never on how they
// were grouped into calls. Random record shapes and context mixes are
// written once as whole batches, once one record per call and once in
// random groups; all three wires must be byte-identical, and must open to
// the same plaintexts and context ids. Seeds are logged for replay.
func TestBatchSplitInvariant(t *testing.T) {
	ctxs := []uint32{DefaultContext, 3, 9}
	for trial := 0; trial < 6; trial++ {
		seed := time.Now().UnixNano() + int64(trial)*104729
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			t.Logf("seed=%d", seed)
			rng := rand.New(rand.NewSource(seed))

			var wireWhole, wireOnes, wireGroups bytes.Buffer
			rlW := fixedKeyLayer(&wireWhole, 3, 9)
			rlO := fixedKeyLayer(&wireOnes, 3, 9)
			rlG := fixedKeyLayer(&wireGroups, 3, 9)
			write := func(rl *recordLayer, recs []OutRecord) {
				if n, err := rl.writeSealed(recs, RecordTypeApplicationData); err != nil || n != len(recs) {
					t.Fatalf("seed=%d write: n=%d err=%v", seed, n, err)
				}
			}

			var all []OutRecord
			for round := 0; round < 8; round++ {
				recs := randomRecords(rng, 1+rng.Intn(20), ctxs)
				write(rlW, recs)
				for i := range recs {
					write(rlO, recs[i:i+1])
				}
				for rest := recs; len(rest) > 0; {
					k := 1 + rng.Intn(len(rest))
					write(rlG, rest[:k])
					rest = rest[k:]
				}
				all = append(all, recs...)
			}

			if !bytes.Equal(wireWhole.Bytes(), wireOnes.Bytes()) {
				t.Fatalf("seed=%d: batches of one differ from whole batches on the wire (%d vs %d bytes)",
					seed, wireOnes.Len(), wireWhole.Len())
			}
			if !bytes.Equal(wireWhole.Bytes(), wireGroups.Bytes()) {
				t.Fatalf("seed=%d: random groups differ from whole batches on the wire (%d vs %d bytes)",
					seed, wireGroups.Len(), wireWhole.Len())
			}

			rlR := fixedKeyLayer(&wireWhole, 3, 9)
			for i, want := range all {
				id, typ, payload, err := rlR.readRecordAny()
				if err != nil {
					t.Fatalf("seed=%d record %d: open: %v", seed, i, err)
				}
				if typ != RecordTypeApplicationData {
					t.Fatalf("seed=%d record %d: type %d", seed, i, typ)
				}
				if id != want.Ctx {
					t.Fatalf("seed=%d record %d: ctx %d want %d", seed, i, id, want.Ctx)
				}
				if full := slices.Concat(want.Head, want.Body, want.Tail); !bytes.Equal(payload, full) {
					t.Fatalf("seed=%d record %d: payload mismatch (%d vs %d bytes)",
						seed, i, len(payload), len(full))
				}
				bufpool.Put(payload)
			}
		})
	}
}

// TestBatchKeyLimitMidBatch pins behaviour at the AEAD usage limit
// crossing inside a batch: the records before the boundary are sealed
// and on the wire, the rest are refused with ErrKeyLimit, and the
// receiver opens exactly the sealed prefix.
func TestBatchKeyLimitMidBatch(t *testing.T) {
	var wire bytes.Buffer
	rl := fixedKeyLayer(&wire)
	rl.out.seq = aeadLimit - 2

	recs := make([]OutRecord, 5)
	for i := range recs {
		recs[i] = OutRecord{Ctx: DefaultContext, Body: []byte{byte(i), 1, 2, 3}}
	}
	n, err := rl.writeSealed(recs, RecordTypeApplicationData)
	if n != 2 || !errors.Is(err, ErrKeyLimit) {
		t.Fatalf("n=%d err=%v, want 2, ErrKeyLimit", n, err)
	}

	rlR := fixedKeyLayer(&wire)
	rlR.in.seq = aeadLimit - 2
	for i := 0; i < 2; i++ {
		_, _, payload, err := rlR.readRecordAny()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if payload[0] != byte(i) {
			t.Fatalf("record %d: got marker %d", i, payload[0])
		}
		bufpool.Put(payload)
	}
	if wire.Len() != 0 {
		t.Fatalf("%d stray wire bytes after the limit", wire.Len())
	}
}

// TestKeyBudgetSharedAcrossContexts: the AEAD limit belongs to the key,
// and every context of a direction shares one key. Three streams and the
// control channel together may protect 2^24 records, not 2^24 each; a
// context that never came near the figure on its own is refused with the
// rest, on both sides.
func TestKeyBudgetSharedAcrossContexts(t *testing.T) {
	var wire bytes.Buffer
	rl := fixedKeyLayer(&wire, 3, 5, 7)
	rlR := fixedKeyLayer(&wire, 3, 5, 7)
	// Fast-forward: the three streams have protected a third of the budget
	// each, bar the last six records.
	const each = aeadLimit/3 - 2 // 3*each = aeadLimit - 7
	for _, hc := range []*halfConn{&rl.out, &rlR.in} {
		for _, id := range []uint32{3, 5, 7} {
			hc.context(id).seq = each
		}
		hc.ctxRecords = 3 * each
	}
	var recs []OutRecord
	for i := 0; i < 9; i++ {
		recs = append(recs, OutRecord{Ctx: []uint32{3, 5, 7}[i%3], Body: []byte{byte(i)}})
	}
	n, err := rl.writeSealed(recs, RecordTypeApplicationData)
	if n != 7 || !errors.Is(err, ErrKeyLimit) {
		t.Fatalf("sealed %d records then %v, want 7 then ErrKeyLimit at 2^24 in total", n, err)
	}
	if used := rl.out.seq + rl.out.ctxRecords; used != aeadLimit {
		t.Fatalf("key protected %d records, want %d", used, aeadLimit)
	}
	if n, err := rl.writeSealed([]OutRecord{{Ctx: DefaultContext, Body: []byte("ack")}}, RecordTypeApplicationData); n != 0 || !errors.Is(err, ErrKeyLimit) {
		t.Fatalf("control record after the budget: n=%d err=%v, want ErrKeyLimit", n, err)
	}
	for i := 0; i < 7; i++ {
		id, _, payload, err := rlR.readRecordAny()
		if err != nil || id != recs[i].Ctx || payload[0] != byte(i) {
			t.Fatalf("record %d: ctx %d: %v", i, id, err)
		}
		bufpool.Put(payload)
	}
	if rlR.in.forgery == 0 {
		t.Fatal("switching streams cost no failed open: the fixture is not exercising trial opening")
	}
	// The receiver's budget is spent by the records it opened, not by the
	// trials that failed on the way.
	if used := rlR.in.seq + rlR.in.ctxRecords; used != aeadLimit {
		t.Fatalf("receiver counts %d records opened, want %d", used, aeadLimit)
	}
	wire.Write([]byte{RecordTypeApplicationData, 3, 3, 0, 17})
	wire.Write(make([]byte, 17))
	if _, _, _, err := rlR.readRecordAny(); !errors.Is(err, ErrKeyLimit) {
		t.Fatalf("read past the key's budget: %v, want ErrKeyLimit", err)
	}
}

// TestBatchReadStopsAtDefaultContext pins the ordering contract the
// TCPLS core depends on: default-context records can carry control
// frames that register new crypto contexts, so a batch read must end
// at one — records behind it stay buffered until the caller has
// processed it. Draining past it would trial-open later records
// against a stale context set and drop them as undecryptable.
func TestBatchReadStopsAtDefaultContext(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	for _, c := range []*Conn{client, server} {
		if err := c.AddStreamContext(4); err != nil {
			t.Fatal(err)
		}
	}
	recs := []OutRecord{
		{Ctx: 4, Body: []byte("data-0")},
		{Ctx: 4, Body: []byte("data-1")},
		{Ctx: DefaultContext, Body: []byte("control")},
		{Ctx: 4, Body: []byte("data-2")},
	}
	if n, err := server.WriteRecordBatch(recs); n != len(recs) || err != nil {
		t.Fatalf("write batch: n=%d err=%v", n, err)
	}
	buf := make([]InRecord, 8)
	n, err := client.ReadRecordContextBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	// The whole burst is buffered (one transport write), yet the batch
	// must stop at the default-context record even with room left.
	if n != 3 || buf[2].Ctx != DefaultContext {
		t.Fatalf("first drain n=%d lastCtx=%d, want 3 ending at the default context", n, buf[n-1].Ctx)
	}
	for i := 0; i < n; i++ {
		bufpool.Put(buf[i].Payload)
	}
	n, err = client.ReadRecordContextBatch(buf)
	if err != nil || n != 1 || buf[0].Ctx != 4 || !bytes.Equal(buf[0].Payload, []byte("data-2")) {
		t.Fatalf("second drain n=%d err=%v, want the trailing data record", n, err)
	}
	bufpool.Put(buf[0].Payload)
}

// TestBatchReadDrainsBurst exercises the Conn-level batch read over a
// real handshaked pair: a burst lands in one ReadRecordContextBatch
// call (modulo transport fragmentation), with payload and context
// fidelity, including post-handshake ticket records arriving mid-read.
func TestBatchReadDrainsBurst(t *testing.T) {
	client, server := handshakePair(t, clientConfig(), serverConfig())
	if err := client.AddStreamContext(4); err != nil {
		t.Fatal(err)
	}
	if err := server.AddStreamContext(4); err != nil {
		t.Fatal(err)
	}

	recs := []OutRecord{
		{Ctx: DefaultContext, Body: []byte("control-0")},
		{Ctx: 4, Body: bytes.Repeat([]byte{1}, 4096)},
		{Ctx: 4, Body: bytes.Repeat([]byte{2}, 4096)},
		{Ctx: DefaultContext, Body: []byte("control-1")},
		{Ctx: 4, Body: bytes.Repeat([]byte{3}, 4096)},
	}
	if n, err := server.WriteRecordBatch(recs); n != len(recs) || err != nil {
		t.Fatalf("write batch: n=%d err=%v", n, err)
	}

	// The client side also absorbs the server's NewSessionTicket
	// records transparently during the drain.
	var got []InRecord
	buf := make([]InRecord, 8)
	for len(got) < len(recs) {
		n, err := client.ReadRecordContextBatch(buf)
		if err != nil {
			t.Fatalf("batch read after %d records: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	for i, want := range recs {
		if got[i].Ctx != want.Ctx {
			t.Fatalf("record %d: ctx %d want %d", i, got[i].Ctx, want.Ctx)
		}
		if !bytes.Equal(got[i].Payload, want.Body) {
			t.Fatalf("record %d: payload mismatch", i)
		}
		bufpool.Put(got[i].Payload)
	}
}

// TestBatchWriteSteadyStateAllocs is the alloc gate for the batched
// sender: sealing a 4-record cwnd-shaped burst must not allocate.
func TestBatchWriteSteadyStateAllocs(t *testing.T) {
	rl := fixedKeyLayer(rwPair{bytes.NewReader(nil), io.Discard})
	body := bytes.Repeat([]byte{0x17}, 4096)
	head := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	recs := []OutRecord{
		{Ctx: DefaultContext, Head: head, Body: body},
		{Ctx: DefaultContext, Head: head, Body: body},
		{Ctx: DefaultContext, Head: head, Body: body},
		{Ctx: DefaultContext, Head: head, Body: body},
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := rl.writeSealed(recs, RecordTypeApplicationData); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batched seal allocates %.1f/op, want 0", allocs)
	}
}

// FuzzBatchOpenFraming feeds arbitrary bytes to the batch-open framing
// path (recordBuffered + readRecordAny drain loop) over keyed state: no
// input may panic, loop forever, or smuggle a record through with a bad
// tag.
func FuzzBatchOpenFraming(f *testing.F) {
	// Seed with a genuine sealed batch, a truncation and raw noise.
	var wire bytes.Buffer
	rl := fixedKeyLayer(&wire, 5)
	rl.writeSealed([]OutRecord{
		{Ctx: DefaultContext, Body: []byte("seed-record-one")},
		{Ctx: 5, Body: bytes.Repeat([]byte{9}, 600)},
	}, RecordTypeApplicationData)
	valid := append([]byte(nil), wire.Bytes()...)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{23, 3, 3, 0, 1, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 300))

	f.Fuzz(func(t *testing.T, data []byte) {
		rl := fixedKeyLayer(rwPair{bytes.NewReader(data), io.Discard}, 5)
		for i := 0; i < 64; i++ {
			if i > 0 && !rl.recordBuffered() {
				break // batch drain stops exactly where blocking starts
			}
			_, typ, payload, err := rl.readRecordAny()
			if err != nil {
				return // framing/MAC rejection is the expected outcome
			}
			if typ == RecordTypeApplicationData && payload != nil {
				bufpool.Put(payload)
			}
		}
	})
}

// TestOpenOrderMostRecentFirst pins the order in which an inbound record
// is tried against the contexts: the one that opened the previous record
// first, then the base context, then the streams in attachment order. Two
// streams send alternating 16-record bursts with a control record (an ack,
// in the session's terms) between them. Inside a burst no tag check may
// fail; a change of context may cost at most two. A record for a removed
// context, and one sealed under no context at all, must still fail closed
// with every remaining context tried and counted.
func TestOpenOrderMostRecentFirst(t *testing.T) {
	var wire bytes.Buffer
	rl := fixedKeyLayer(&wire, 3, 9)
	rlR := fixedKeyLayer(&wire, 3, 9)
	seal := func(ctx uint32, n int) {
		recs := make([]OutRecord, n)
		for i := range recs {
			recs[i] = OutRecord{Ctx: ctx, Body: []byte{byte(ctx), byte(i)}}
		}
		if _, err := rl.writeSealed(recs, RecordTypeApplicationData); err != nil {
			t.Fatal(err)
		}
	}
	// open reads n records, all of which must open under ctx, and returns
	// how many tag checks failed on the first one and on the rest.
	open := func(ctx uint32, n int) (first, rest uint64) {
		for i := 0; i < n; i++ {
			before := rlR.in.forgery
			id, _, payload, err := rlR.readRecordAny()
			if err != nil || id != ctx || payload[0] != byte(ctx) || payload[1] != byte(i) {
				t.Fatalf("record %d of a burst under %d: opened under %d: %v", i, ctx, id, err)
			}
			bufpool.Put(payload)
			if i == 0 {
				first = rlR.in.forgery - before
			} else {
				rest += rlR.in.forgery - before
			}
		}
		return first, rest
	}
	var opened, failed uint64
	for round := 0; round < 6; round++ {
		for _, burst := range []struct {
			ctx uint32
			n   int
		}{{3, 16}, {DefaultContext, 1}, {9, 16}, {3, 16}, {DefaultContext, 2}, {9, 16}} {
			seal(burst.ctx, burst.n)
			first, rest := open(burst.ctx, burst.n)
			if rest != 0 {
				t.Fatalf("round %d: %d failed opens inside a burst under %d", round, rest, burst.ctx)
			}
			if first > 2 {
				t.Fatalf("round %d: switching to %d cost %d failed opens, want at most 2", round, burst.ctx, first)
			}
			opened += uint64(burst.n)
			failed += first
		}
	}
	if used := rlR.in.seq + rlR.in.ctxRecords; used != opened {
		t.Fatalf("key budget counts %d records, %d were opened", used, opened)
	}
	if rlR.in.forgery != failed || failed == 0 {
		t.Fatalf("forgery counter %d, %d opens failed", rlR.in.forgery, failed)
	}

	// A record for a context the receiver has dropped (and was the most
	// recent one): every context left is tried, none opens it.
	seal(9, 1)
	rlR.in.removeContext(9)
	before := rlR.in.forgery
	if _, _, _, err := rlR.readRecordAny(); !errors.Is(err, ErrNoContext) {
		t.Fatalf("record for a removed context: %v, want ErrNoContext", err)
	}
	if got := rlR.in.forgery - before; got != 2 {
		t.Fatalf("record for a removed context cost %d failed opens, want 2 (base and stream 3)", got)
	}
	// A record sealed under no context the receiver ever had.
	rl.out.addContext(77, bytes.Repeat([]byte{0x77}, 12))
	seal(77, 1)
	if _, _, _, err := rlR.readRecordAny(); !errors.Is(err, ErrNoContext) {
		t.Fatalf("record under an unknown context: %v, want ErrNoContext", err)
	}
	// The stream is still in step afterwards.
	seal(3, 2)
	open(3, 2)
}
