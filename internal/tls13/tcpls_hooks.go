package tls13

import (
	"encoding/binary"
	"fmt"

	"github.com/pluginized-protocols/gotcpls/internal/bufpool"
)

// This file is the TCPLS attachment surface of the record layer (§2.3 of
// the paper): additional cryptographic contexts that share the
// direction's application traffic KEY but use a per-stream IV derived by
// HKDF-Expand-Label(secret, "tcpls iv", streamID). Each context has its
// own record sequence space starting at zero. The receiver does not
// learn the stream id from the wire — it trial-verifies the AEAD tag
// against its known contexts until one opens, exactly as the paper
// describes ("configure the AEAD cipher to check the authentication tag
// until we find the right stream"). Records leave through WriteRecordBatch
// and arrive through ReadRecordContextBatch; the single-record calls wrap
// them (a single record is a batch of one).

// DefaultContext identifies the connection's base TLS context (the one
// the handshake established); TCPLS uses it for the control channel.
const DefaultContext uint32 = 0xffffffff

// streamCtx is one extra crypto context on a half connection. Nonces
// are derived into the owning halfConn's scratch (halfConn.nonce).
type streamCtx struct {
	id  uint32
	iv  []byte
	seq uint64
}

// ErrNoContext reports an inbound record that no context could open: a
// bad record MAC under every one of them.
var ErrNoContext = fmt.Errorf("%w: no crypto context opens this record", ErrBadRecordMAC)

// streamIVLabel derives the per-stream IV.
func (s *suiteParams) streamIV(trafficSecret []byte, streamID uint32) []byte {
	var ctx [4]byte
	binary.BigEndian.PutUint32(ctx[:], streamID)
	return s.expandLabel(trafficSecret, "tcpls iv", ctx[:], s.ivLen)
}

// AddStreamContext derives read+write contexts for a stream id.
// Both directions share the stream id space in TCPLS. It intentionally
// avoids the read/write record locks: a blocked reader must not prevent
// context installation.
func (c *Conn) AddStreamContext(id uint32) error {
	if !c.hsDone {
		return ErrHandshakeRequired
	}
	readSecret, writeSecret := c.serverAppSecret, c.clientAppSecret
	if !c.isClient {
		readSecret, writeSecret = c.clientAppSecret, c.serverAppSecret
	}
	c.rl.in.addContext(id, c.suite.streamIV(readSecret, id))
	c.rl.out.addContext(id, c.suite.streamIV(writeSecret, id))
	return nil
}

// RemoveStreamContext drops a stream's contexts (stream closed).
func (c *Conn) RemoveStreamContext(id uint32) {
	c.rl.in.removeContext(id)
	c.rl.out.removeContext(id)
}

// WriteRecordContext writes one application-data record protected under
// the given context (DefaultContext means the base TLS context).
func (c *Conn) WriteRecordContext(id uint32, payload []byte) error {
	return c.WriteRecordParts(id, nil, payload, nil)
}

// WriteRecordParts writes one application-data record under the given
// context whose payload is the concatenation head||body||tail. The
// parts are gathered directly into the sealed-record buffer, so callers
// composing framing (record headers, type trailers) around a payload
// avoid an intermediate copy. Any part may be nil.
func (c *Conn) WriteRecordParts(id uint32, head, body, tail []byte) error {
	recs := [1]OutRecord{{Ctx: id, Head: head, Body: body, Tail: tail}}
	_, err := c.WriteRecordBatch(recs[:])
	return err
}

// WriteRecordBatch seals every record of recs under its context and
// writes them with as few transport writes as possible (see writeSealed,
// whose result it returns).
func (c *Conn) WriteRecordBatch(recs []OutRecord) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	c.muWrite.Lock()
	defer c.muWrite.Unlock()
	if err := c.handshakeNeeded(); err != nil {
		return 0, err
	}
	if c.rl.out.aead == nil {
		return 0, ErrHandshakeRequired
	}
	return c.rl.writeSealed(recs, RecordTypeApplicationData)
}

// InRecord is one inbound record. Payload is backed by a bufpool buffer
// whose ownership transfers to the caller (pass it to bufpool.Put when
// done; skipping the Put just falls back to the garbage collector).
type InRecord struct {
	Ctx     uint32
	Payload []byte
}

// ReadRecordContext reads the next application-data record: the context
// that opened it and its payload, owned as InRecord.Payload is.
func (c *Conn) ReadRecordContext() (uint32, []byte, error) {
	var one [1]InRecord
	if n, err := c.ReadRecordContextBatch(one[:]); n == 0 {
		return 0, nil, err
	}
	return one[0].Ctx, one[0].Payload, nil
}

// ReadRecordContextBatch drains application-data records into out: it
// blocks for the first record, then keeps appending records that are
// already complete in the receive buffer — one lock acquisition and zero
// extra transport reads for a whole burst. Post-handshake messages are
// handled transparently mid-batch.
//
// It returns the number of records filled. n > 0 with a non-nil error
// means records [0, n) are valid AND the stream then failed; callers
// must consume the records before acting on the error.
func (c *Conn) ReadRecordContextBatch(out []InRecord) (int, error) {
	c.muRead.Lock()
	defer c.muRead.Unlock()
	return c.readRecords(out)
}

// readRecords is ReadRecordContextBatch under muRead.
func (c *Conn) readRecords(out []InRecord) (int, error) {
	if err := c.handshakeNeeded(); err != nil {
		return 0, err
	}
	n := 0
	for n < len(out) {
		if n > 0 && !c.rl.recordBuffered() {
			break // would block; deliver what we have
		}
		id, typ, payload, err := c.rl.readRecordAny()
		if err != nil {
			return n, err
		}
		if typ == RecordTypeApplicationData {
			out[n] = InRecord{Ctx: id, Payload: payload}
			n++
			if id == DefaultContext {
				// Default-context records can carry control frames that
				// register new crypto contexts. Later records of the same
				// burst may only decrypt after the caller processes this
				// one, so the batch must stop here — draining on would
				// trial-open them against a context set that is about to
				// change and misreport them as undecryptable.
				return n, nil
			}
			continue
		}
		switch typ {
		case RecordTypeHandshake:
			err = c.handlePostHandshake(payload)
		case RecordTypeAlert:
			err = alertToError(payload)
		default:
			err = fmt.Errorf("tls13: unexpected record type %d", typ)
		}
		bufpool.Put(payload)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ForgeryCount reports failed AEAD openings on the read side — TCPLS
// tracks these against the AEAD usage limits ([31,46] in the paper).
func (c *Conn) ForgeryCount() uint64 {
	c.muRead.Lock()
	defer c.muRead.Unlock()
	return c.rl.in.forgery
}

// RecordsLeft reports how many more records the busier direction's key
// may protect before ErrKeyLimit; with no key update, the connection's
// remaining lifetime. Lock-free: safe to poll while a reader is blocked.
func (c *Conn) RecordsLeft() uint64 {
	used := max(c.rl.in.used.Load(), c.rl.out.used.Load())
	if used >= aeadLimit {
		return 0
	}
	return aeadLimit - used
}

// --- halfConn context management ---

func (hc *halfConn) addContext(id uint32, iv []byte) {
	hc.ctxMu.Lock()
	defer hc.ctxMu.Unlock()
	for _, sc := range hc.ctxs {
		if sc.id == id {
			return
		}
	}
	hc.ctxs = append(hc.ctxs, &streamCtx{id: id, iv: iv})
}

func (hc *halfConn) removeContext(id uint32) {
	hc.ctxMu.Lock()
	defer hc.ctxMu.Unlock()
	for i, sc := range hc.ctxs {
		if sc.id == id {
			hc.ctxs = append(hc.ctxs[:i], hc.ctxs[i+1:]...)
			if hc.last == sc {
				hc.last = nil
			}
			return
		}
	}
}

func (hc *halfConn) context(id uint32) *streamCtx {
	hc.ctxMu.Lock()
	defer hc.ctxMu.Unlock()
	for _, sc := range hc.ctxs {
		if sc.id == id {
			return sc
		}
	}
	return nil
}

// open authenticates and decrypts one record under exactly one context,
// into dst (empty, with capacity for the plaintext), and returns the
// plaintext and that context's id. The context that opened the previous
// record is tried first — a stream in bulk then costs one tag check per
// record — then the base context, then the streams in attachment order.
// Every failed attempt counts as a forgery and zeroes only dst, so the
// ciphertext stays intact for the next. Holding ctxMu across the attempts
// is fine: the loop never blocks, and context installation is rare.
func (hc *halfConn) open(dst, body, ad []byte) ([]byte, uint32, bool) {
	hc.ctxMu.Lock()
	defer hc.ctxMu.Unlock()
	first := hc.last
	if plain, ok := hc.tryOpen(first, dst, body, ad); ok {
		return plain, first.ctxID(), true
	}
	if first != nil {
		if plain, ok := hc.tryOpen(nil, dst, body, ad); ok {
			hc.last = nil
			return plain, DefaultContext, true
		}
	}
	for _, sc := range hc.ctxs {
		if sc == first {
			continue
		}
		if plain, ok := hc.tryOpen(sc, dst, body, ad); ok {
			hc.last = sc
			return plain, sc.id, true
		}
	}
	return nil, 0, false
}

// tryOpen is one tag check under sc (nil: the base context).
func (hc *halfConn) tryOpen(sc *streamCtx, dst, body, ad []byte) ([]byte, bool) {
	plain, err := hc.aead.Open(dst, hc.nonce(sc), body, ad)
	if err != nil {
		hc.forgery++
		return nil, false
	}
	hc.advance(sc)
	return plain, true
}

// ctxID is the context's id; the nil context is the base one.
func (sc *streamCtx) ctxID() uint32 {
	if sc == nil {
		return DefaultContext
	}
	return sc.id
}

// recordBuffered reports whether a complete record is already sitting
// in the read buffer, i.e. whether another readRecordAny is guaranteed
// not to touch the transport.
func (rl *recordLayer) recordBuffered() bool {
	avail := len(rl.buf) - rl.off
	if avail < recordHeader {
		return false
	}
	n := int(binary.BigEndian.Uint16(rl.buf[rl.off+3:]))
	return avail >= recordHeader+n
}

// readRecordAny reads one record and opens it under whichever context
// authenticates it (halfConn.open), returning that context's id
// (DefaultContext for the base keys).
//
// The payload is always a bufpool buffer whose ownership transfers to the
// caller: passing the returned slice to bufpool.Put when done recycles it
// (its base pointer is the buffer base). Protected records are decrypted
// into it straight from the read buffer; unprotected ones (before keys
// are installed) are copied.
func (rl *recordLayer) readRecordAny() (uint32, uint8, []byte, error) {
	for {
		hdr, err := rl.fill(recordHeader)
		if err != nil {
			return 0, 0, nil, err
		}
		n := int(binary.BigEndian.Uint16(hdr[3:]))
		if n > MaxCiphertext {
			return 0, 0, nil, ErrRecordOverflow
		}
		full, err := rl.fill(recordHeader + n)
		if err != nil {
			return 0, 0, nil, err
		}
		typ := full[0]
		body := full[recordHeader : recordHeader+n]

		if typ == RecordTypeChangeCipherSpec {
			rl.consume(recordHeader + n)
			continue
		}
		if rl.in.aead == nil || typ != RecordTypeApplicationData {
			out := bufpool.Get(n)
			copy(out, body)
			rl.consume(recordHeader + n)
			return DefaultContext, typ, out, nil
		}
		if rl.in.exhausted() {
			return 0, 0, nil, ErrKeyLimit
		}
		ad := rl.in.adBuf[:] // the record header is the additional data
		ad[0], ad[1], ad[2] = typ, 0x03, 0x03
		binary.BigEndian.PutUint16(ad[3:], uint16(n))
		plainBuf := bufpool.Get(n)
		plain, id, ok := rl.in.open(plainBuf[:0], body, ad)
		rl.consume(recordHeader + n)
		if !ok {
			bufpool.Put(plainBuf)
			return 0, 0, nil, ErrNoContext
		}
		inner, ityp, ok := stripInner(plain)
		if !ok {
			bufpool.Put(plainBuf)
			return 0, 0, nil, ErrBadRecordMAC
		}
		return id, ityp, inner, nil
	}
}

// stripInner removes zero padding and the inner content type.
func stripInner(plain []byte) ([]byte, uint8, bool) {
	i := len(plain) - 1
	for i >= 0 && plain[i] == 0 {
		i--
	}
	if i < 0 {
		return nil, 0, false
	}
	return plain[:i], plain[i], true
}
