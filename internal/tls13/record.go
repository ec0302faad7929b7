package tls13

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
)

// Record content types.
const (
	RecordTypeChangeCipherSpec uint8 = 20
	RecordTypeAlert            uint8 = 21
	RecordTypeHandshake        uint8 = 22
	RecordTypeApplicationData  uint8 = 23
)

// Record-layer limits (RFC 8446 §5.1/§5.2).
const (
	MaxPlaintext  = 16384
	MaxCiphertext = MaxPlaintext + 256
	recordHeader  = 5
)

// Record-layer errors.
var (
	ErrRecordOverflow = errors.New("tls13: record overflows limit")
	ErrBadRecordMAC   = errors.New("tls13: bad record MAC")
	ErrKeyLimit       = errors.New("tls13: AEAD usage limit reached")
)

// aeadLimit is the confidentiality limit on records per key for AES-GCM
// (2^24.5 per the AEAD-limits analysis the paper cites [31, 46]; we round
// down). The budget is the key's: every record sealed or opened under it
// spends it, whichever context's nonce space it used. Failed openings are
// budgeted separately against the same figure (far stricter than the 2^36
// integrity limit). Hitting either returns ErrKeyLimit rather than
// weakening. MaxRecordsPerKey is what Conn.RecordsLeft counts down from.
const (
	aeadLimit        = 1 << 24
	MaxRecordsPerKey = aeadLimit
)

// halfConn protects one direction of a connection.
type halfConn struct {
	aead cipher.AEAD
	iv   []byte
	seq  uint64 // base-context sequence number

	// ctxRecords counts records under the stream contexts, which share the
	// key: seq+ctxRecords is what the key has protected, mirrored in used for
	// readers outside the direction's lock. forgery counts failed openings.
	ctxRecords uint64
	forgery    uint64
	used       atomic.Uint64

	// nonceBuf and adBuf are scratch for nonce derivation and the
	// additional-data record header, valid until the next record on
	// this half. Safe because each direction's record path is
	// serialized (muRead for in, muWrite for out). Stack arrays would
	// do, but passed through the cipher.AEAD interface they escape and
	// cost an allocation per record.
	nonceBuf [16]byte
	adBuf    [recordHeader]byte

	// TCPLS per-stream contexts (tcpls_hooks.go). ctxMu guards the slice
	// and last, the context that opened the previous record (nil: the base
	// one); per-context sequence numbers are mutated exclusively by the
	// direction's record path (muRead for in, muWrite for out).
	ctxMu sync.Mutex
	ctxs  []*streamCtx
	last  *streamCtx
}

// setKeys installs a traffic secret (nil aead means plaintext).
func (hc *halfConn) setKeys(s *suiteParams, trafficSecret []byte) {
	hc.aead, hc.iv = s.aead(trafficSecret)
	hc.seq, hc.ctxRecords = 0, 0
	hc.used.Store(0)
}

// exhausted reports whether the key has spent either AEAD budget.
func (hc *halfConn) exhausted() bool {
	return hc.seq+hc.ctxRecords >= aeadLimit || hc.forgery >= aeadLimit
}

// nonce derives the next record's nonce under sc (nil: the base context)
// into the half's scratch: sequence number XOR static IV (RFC 8446 §5.3).
func (hc *halfConn) nonce(sc *streamCtx) []byte {
	iv, seq := hc.iv, hc.seq
	if sc != nil {
		iv, seq = sc.iv, sc.seq
	}
	n := hc.nonceBuf[:len(iv)]
	copy(n, iv)
	var seqb [8]byte
	binary.BigEndian.PutUint64(seqb[:], seq)
	for i := 0; i < 8; i++ {
		n[len(n)-8+i] ^= seqb[i]
	}
	return n
}

// advance spends the nonce just derived for sc and one record of the budget.
func (hc *halfConn) advance(sc *streamCtx) {
	if sc == nil {
		hc.seq++
	} else {
		sc.seq++
		hc.ctxRecords++
	}
	hc.used.Store(hc.seq + hc.ctxRecords)
}

// recordLayer frames, protects and deprotects TLS records over an
// io.ReadWriter (typically a TCP connection — kernel or tcpnet).
//
// Outbound records are assembled and sealed in place inside a pooled
// buffer that is recycled right after rw.Write returns: the transport
// must not retain the write slice past the call (tcpnet and kernel
// sockets both copy into their send buffers).
type recordLayer struct {
	rw  io.ReadWriter
	in  halfConn
	out halfConn
	buf []byte // read buffer: buf[off:] holds unconsumed record bytes
	off int
}

// writeRecord writes one record. If the write direction is encrypted,
// payload is wrapped as TLSInnerPlaintext with the given inner type and
// the outer type becomes application_data; otherwise typ goes on the
// wire directly.
func (rl *recordLayer) writeRecord(typ uint8, payload []byte) error {
	if len(payload) > MaxPlaintext {
		return ErrRecordOverflow
	}
	if rl.out.aead == nil {
		out := bufpool.Get(recordHeader + len(payload))
		out[0] = typ
		binary.BigEndian.PutUint16(out[1:], 0x0301)
		binary.BigEndian.PutUint16(out[3:], uint16(len(payload)))
		copy(out[recordHeader:], payload)
		_, err := rl.rw.Write(out)
		bufpool.Put(out)
		return err
	}
	recs := [1]OutRecord{{Ctx: DefaultContext, Body: payload}}
	_, err := rl.writeSealed(recs[:], typ)
	return err
}

// OutRecord describes one outbound record: a crypto context
// (DefaultContext or a stream context id) and a payload gathered from up
// to three parts (framing head, body, trailer), any of which may be nil
// and which together must not exceed MaxPlaintext.
type OutRecord struct {
	Ctx              uint32
	Head, Body, Tail []byte
}

// batchBufCap bounds the sealed-record staging buffer — the largest
// bufpool class, ~15 cwnd-matched 4K records or 3 max-size ones. Larger
// batches flush mid-batch and keep going.
const batchBufCap = 64 << 10

// writeSealed is the one path every protected record leaves by: it seals
// each of recs under its context, in order, as an application-data record
// whose inner plaintext is head||body||tail||innerType, with as few
// transport writes as possible (one, if the sealed bytes fit the staging
// buffer). The parts are gathered into a pooled buffer and encrypted in
// place (dst overlapping plaintext exactly, which AES-GCM permits).
//
// It returns the number of records sealed; on error, records [0, n) are on
// the wire (or spent their sequence numbers) and the rest were not
// started. Caller holds muWrite and has verified out.aead != nil.
// Closure-free, so the steady-state write stays zero-alloc.
func (rl *recordLayer) writeSealed(recs []OutRecord, innerType uint8) (sealed int, err error) {
	overhead := recordHeader + 1 + rl.out.aead.Overhead()
	need := 0
	for i := range recs {
		need += len(recs[i].Head) + len(recs[i].Body) + len(recs[i].Tail) + overhead
	}
	buf := bufpool.Get(min(need, batchBufCap))
	used := 0

	var sc *streamCtx
	for i := range recs {
		r := &recs[i]
		plen := len(r.Head) + len(r.Body) + len(r.Tail)
		if plen > MaxPlaintext {
			err = ErrRecordOverflow
			break
		}
		if used+plen+overhead > len(buf) {
			// Staging buffer full: flush what's sealed and keep going.
			if _, err = rl.rw.Write(buf[:used]); err != nil {
				used = 0
				break
			}
			used = 0
		}

		// Resolve the context and check the key's budget before spending
		// a nonce.
		if r.Ctx == DefaultContext {
			sc = nil
		} else if sc == nil || sc.id != r.Ctx {
			if sc = rl.out.context(r.Ctx); sc == nil {
				err = fmt.Errorf("tls13: unknown write context %d", r.Ctx)
				break
			}
		}
		if rl.out.exhausted() {
			err = ErrKeyLimit
			break
		}
		nonce := rl.out.nonce(sc)
		rl.out.advance(sc) // the nonce is spent even if the transport write fails

		rec := buf[used : used+plen+overhead]
		rec[0] = RecordTypeApplicationData
		binary.BigEndian.PutUint16(rec[1:], 0x0303)
		binary.BigEndian.PutUint16(rec[3:], uint16(len(rec)-recordHeader))
		p := rec[recordHeader:recordHeader]
		p = append(p, r.Head...)
		p = append(p, r.Body...)
		p = append(p, r.Tail...)
		p = append(p, innerType)
		rl.out.aead.Seal(rec[:recordHeader], nonce, p, rec[:recordHeader])
		used += len(rec)
		sealed++
	}

	// Flush whatever sealed, even on the error paths: those records
	// spent their nonces and belong on the wire.
	if used > 0 {
		if _, ferr := rl.rw.Write(buf[:used]); ferr != nil && err == nil {
			err = ferr
		}
	}
	bufpool.Put(buf)
	return sealed, err
}

// readChunk is the transport read size for the record buffer, and
// rbufSize the buffer's fixed capacity: it always fits the largest
// fill request (one whole record) plus a full transport read after
// compaction, so the buffer is allocated once per connection and
// steady-state reads never allocate.
const (
	readChunk = 8192
	rbufSize  = 2*(MaxCiphertext+recordHeader) + readChunk
)

// fill ensures n unconsumed buffered bytes and returns a view of them.
// The view is valid until the next fill call (a refill may compact the
// buffer in place).
func (rl *recordLayer) fill(n int) ([]byte, error) {
	if rl.buf == nil {
		rl.buf = make([]byte, 0, rbufSize)
	}
	for len(rl.buf)-rl.off < n {
		if rl.off > 0 && cap(rl.buf)-len(rl.buf) < readChunk {
			unread := copy(rl.buf, rl.buf[rl.off:])
			rl.buf = rl.buf[:unread]
			rl.off = 0
		}
		m, err := rl.rw.Read(rl.buf[len(rl.buf):cap(rl.buf)])
		if m > 0 {
			rl.buf = rl.buf[:len(rl.buf)+m]
			continue
		}
		if err != nil {
			return nil, err
		}
	}
	return rl.buf[rl.off : rl.off+n], nil
}

func (rl *recordLayer) consume(n int) {
	rl.off += n
	if rl.off == len(rl.buf) {
		rl.buf = rl.buf[:0]
		rl.off = 0
	}
}

// Alert descriptions we emit or interpret.
const (
	alertCloseNotify     uint8 = 0
	alertHandshakeFail   uint8 = 40
	alertBadCertificate  uint8 = 42
	alertDecryptError    uint8 = 51
	alertProtocolVersion uint8 = 70
	alertInternalError   uint8 = 80
	alertUnexpectedMsg   uint8 = 10
)

// AlertError is a fatal alert received from the peer.
type AlertError struct {
	Description uint8
}

// Error implements error.
func (a *AlertError) Error() string {
	return fmt.Sprintf("tls13: alert %d from peer", a.Description)
}

// sendAlert writes a fatal (or close_notify) alert.
func (rl *recordLayer) sendAlert(desc uint8) error {
	level := uint8(2)
	if desc == alertCloseNotify {
		level = 1
	}
	return rl.writeRecord(RecordTypeAlert, []byte{level, desc})
}
