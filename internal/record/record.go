// Package record implements TCPLS's record semantics on top of the TLS
// 1.3 record layer: the hidden "true type" (TType) of Figure 1, the
// control-channel frames that ride it (TCP options, TCPLS acks, address
// advertisement, eBPF programs, stream and session control), and the
// codecs for the TCPLS handshake-extension payloads of Figure 2.
//
// Figure 1's trick: every TCPLS record travels as an ordinary TLS
// application-data record — outer content type 23, inner content type 23
// — and the REAL type is one encrypted byte at the very end of the
// payload. A middlebox (or a censor fingerprinting message types) sees
// nothing but application data; the paper calls this "a reasonable
// approach to designing extensibility mechanisms in today's Internet".
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"github.com/pluginized-protocols/gotcpls/internal/wire"
)

// TType is the true TCPLS record type, hidden at the end of the
// encrypted payload (Figure 1).
type TType uint8

// TCPLS record types.
const (
	// TTypeAppData is ordinary application data on the default context.
	TTypeAppData TType = 0
	// TTypeControl carries a batch of control frames.
	TTypeControl TType = 1
	// TTypeStreamData carries one stream-data chunk with its TCPLS
	// sequence number (multipath reordering + failover replay, §2.1).
	TTypeStreamData TType = 2
	// TTypeTCPOption carries one TCP option through the encrypted
	// channel (§3.1, the record Figure 1 depicts).
	TTypeTCPOption TType = 3
)

// Errors.
var (
	ErrEmpty    = errors.New("record: empty TCPLS record")
	ErrBadFrame = errors.New("record: malformed frame")
)

// Encode appends the TType trailer to payload, producing the plaintext
// handed to the TLS record protection.
func Encode(t TType, payload []byte) []byte {
	codecCtr.recordsEncoded.Add(1)
	codecCtr.bytesEncoded.Add(uint64(len(payload)))
	out := make([]byte, 0, len(payload)+1)
	out = append(out, payload...)
	return append(out, byte(t))
}

// Decode splits a decrypted TLS record payload into TType and content.
func Decode(plaintext []byte) (TType, []byte, error) {
	if len(plaintext) == 0 {
		codecCtr.decodeErrors.Add(1)
		return 0, nil, ErrEmpty
	}
	codecCtr.recordsDecoded.Add(1)
	codecCtr.bytesDecoded.Add(uint64(len(plaintext) - 1))
	return TType(plaintext[len(plaintext)-1]), plaintext[:len(plaintext)-1], nil
}

// --- stream data records ---

// StreamHeaderLen is the fixed stream-data header size.
const StreamHeaderLen = 4 + 8 + 1

// StreamChunk is one stream-data record body.
type StreamChunk struct {
	StreamID uint32
	// Offset is the TCPLS sequence number: the byte offset of Data in
	// the stream. It lets the receiver reorder across TCP connections
	// (multipath) and deduplicate replays (failover).
	Offset uint64
	// Fin marks the end of the stream; Data may be empty.
	Fin  bool
	Data []byte
}

// PutStreamHeader writes the chunk's 13-byte stream-data header into b,
// which must hold at least StreamHeaderLen bytes. The hot send path
// hands this header and the chunk data to the record protection as
// separate parts (tls13.WriteRecordParts), so the plaintext is only
// ever assembled inside the sealed-record buffer.
func PutStreamHeader(b []byte, c *StreamChunk) {
	_ = b[StreamHeaderLen-1]
	binary.BigEndian.PutUint32(b[0:], c.StreamID)
	binary.BigEndian.PutUint64(b[4:], c.Offset)
	if c.Fin {
		b[12] = 1
	} else {
		b[12] = 0
	}
}

// EncodeStreamChunk builds the full TCPLS plaintext for a chunk.
func EncodeStreamChunk(c *StreamChunk) []byte {
	out := make([]byte, StreamHeaderLen, StreamHeaderLen+len(c.Data)+1)
	PutStreamHeader(out, c)
	out = append(out, c.Data...)
	return append(out, byte(TTypeStreamData))
}

// DecodeStreamChunk parses a stream-data record content (without TType).
// Data aliases b: on the receive path the decrypted record buffer's
// ownership travels with the chunk, and the stream layer copies once at
// the Stream.Read API boundary before recycling the buffer.
func DecodeStreamChunk(b []byte) (*StreamChunk, error) {
	if len(b) < StreamHeaderLen {
		return nil, ErrBadFrame
	}
	return &StreamChunk{
		StreamID: binary.BigEndian.Uint32(b[0:]),
		Offset:   binary.BigEndian.Uint64(b[4:]),
		Fin:      b[12] == 1,
		Data:     b[StreamHeaderLen:],
	}, nil
}

// --- TCP option records (§3.1, Figure 1) ---

// TCPOption is a TCP option shipped over the secure channel. Unlike the
// 40-byte cleartext header, the record can carry options of any size,
// and middleboxes cannot see or strip them.
type TCPOption struct {
	Kind uint8
	Data []byte
}

// EncodeTCPOption builds the full TCPLS plaintext for a TCP option
// record — the exact record Figure 1 shows for User Timeout.
func EncodeTCPOption(o *TCPOption) []byte {
	out := make([]byte, 0, 3+len(o.Data)+1)
	out = append(out, o.Kind)
	out = binary.BigEndian.AppendUint16(out, uint16(len(o.Data)))
	out = append(out, o.Data...)
	return append(out, byte(TTypeTCPOption))
}

// DecodeTCPOption parses a TCP option record content. Data is copied
// out of b ("no input aliasing"): option callbacks may retain it while
// the record buffer is recycled.
func DecodeTCPOption(b []byte) (*TCPOption, error) {
	if len(b) < 3 {
		return nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	if len(b) != 3+n {
		return nil, ErrBadFrame
	}
	return &TCPOption{Kind: b[0], Data: append([]byte(nil), b[3:]...)}, nil
}

// UserTimeoutOption builds the RFC 5482 option for the secure channel.
func UserTimeoutOption(d time.Duration) *TCPOption {
	o := wire.UserTimeoutOption(d)
	return &TCPOption{Kind: o.Kind, Data: o.Data}
}

// UserTimeout decodes an RFC 5482 user-timeout option.
func (o *TCPOption) UserTimeout() (time.Duration, bool) {
	w := wire.Option{Kind: o.Kind, Data: o.Data}
	return w.UserTimeout()
}

// --- control frames ---

// FrameType identifies a control frame.
type FrameType uint8

// Control frame types.
const (
	FramePing FrameType = iota + 1
	FramePong
	FrameAck           // cumulative TCPLS ack for one stream
	FrameStreamOpen    // sender will use this stream id
	FrameStreamClose   // no more data after FinalOffset
	FrameAddAddress    // advertise an address (the paper's §2.2 example)
	FrameRemoveAddress // withdraw an address
	FrameBPFCC         // eBPF congestion-control program (§3(iii))
	FrameSessionClose  // secure session termination (§2.1)
	FrameConnClose     // orderly close of one TCP connection
)

// Frame is one control frame.
type Frame interface {
	frameType() FrameType
	encodeBody(b []byte) []byte
}

// Ping elicits a Pong (used for path liveness probing). Seq matches the
// answering Pong to its probe so the session layer can measure per-path
// RTT and count unanswered probes — the health signal behind proactive
// failover.
type Ping struct{ Seq uint32 }

// Pong answers a Ping, echoing its Seq.
type Pong struct{ Seq uint32 }

// Ack acknowledges contiguous stream bytes below Offset, enabling the
// sender to drop its replay buffer (§2.1 failover).
type Ack struct {
	StreamID uint32
	Offset   uint64
}

// StreamOpen announces a stream id before first data.
type StreamOpen struct {
	StreamID uint32
}

// StreamClose announces the final offset of a stream.
type StreamClose struct {
	StreamID    uint32
	FinalOffset uint64
}

// AddAddress advertises an endpoint address over the encrypted channel —
// the dual-stack server advertising its IPv6 address of §2.2, and the
// encrypted ADD_ADDR of §4.1.
type AddAddress struct {
	Addr    netip.Addr
	Port    uint16
	Primary bool
}

// RemoveAddress withdraws an advertised address.
type RemoveAddress struct {
	Addr netip.Addr
}

// BPFCC carries an eBPF congestion-control program (§3(iii), §4.3).
type BPFCC struct {
	Name     string
	Bytecode []byte
}

// SessionClose terminates the whole TCPLS session securely: unlike a
// cleartext FIN or RST it cannot be forged by a middlebox.
type SessionClose struct{}

// ConnClose asks the peer to tear down one TCP connection gracefully
// (used during application-level migration, §3.2).
type ConnClose struct {
	ConnID uint32
}

func (Ping) frameType() FrameType          { return FramePing }
func (Pong) frameType() FrameType          { return FramePong }
func (Ack) frameType() FrameType           { return FrameAck }
func (StreamOpen) frameType() FrameType    { return FrameStreamOpen }
func (StreamClose) frameType() FrameType   { return FrameStreamClose }
func (AddAddress) frameType() FrameType    { return FrameAddAddress }
func (RemoveAddress) frameType() FrameType { return FrameRemoveAddress }
func (BPFCC) frameType() FrameType         { return FrameBPFCC }
func (SessionClose) frameType() FrameType  { return FrameSessionClose }
func (ConnClose) frameType() FrameType     { return FrameConnClose }

func (f Ping) encodeBody(b []byte) []byte { return binary.BigEndian.AppendUint32(b, f.Seq) }
func (f Pong) encodeBody(b []byte) []byte { return binary.BigEndian.AppendUint32(b, f.Seq) }

func (f Ack) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, f.StreamID)
	return binary.BigEndian.AppendUint64(b, f.Offset)
}

func (f StreamOpen) encodeBody(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, f.StreamID)
}

func (f StreamClose) encodeBody(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, f.StreamID)
	return binary.BigEndian.AppendUint64(b, f.FinalOffset)
}

func appendAddr(b []byte, a netip.Addr) []byte {
	if a.Is4() {
		b = append(b, 4)
		v := a.As4()
		return append(b, v[:]...)
	}
	b = append(b, 6)
	v := a.As16()
	return append(b, v[:]...)
}

func parseAddr(b []byte) (netip.Addr, []byte, bool) {
	if len(b) < 1 {
		return netip.Addr{}, nil, false
	}
	switch b[0] {
	case 4:
		if len(b) < 5 {
			return netip.Addr{}, nil, false
		}
		return netip.AddrFrom4([4]byte(b[1:5])), b[5:], true
	case 6:
		if len(b) < 17 {
			return netip.Addr{}, nil, false
		}
		return netip.AddrFrom16([16]byte(b[1:17])), b[17:], true
	}
	return netip.Addr{}, nil, false
}

func (f AddAddress) encodeBody(b []byte) []byte {
	b = appendAddr(b, f.Addr)
	b = binary.BigEndian.AppendUint16(b, f.Port)
	if f.Primary {
		return append(b, 1)
	}
	return append(b, 0)
}

func (f RemoveAddress) encodeBody(b []byte) []byte {
	return appendAddr(b, f.Addr)
}

func (f BPFCC) encodeBody(b []byte) []byte {
	b = append(b, byte(len(f.Name)))
	b = append(b, f.Name...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(f.Bytecode)))
	return append(b, f.Bytecode...)
}

func (SessionClose) encodeBody(b []byte) []byte { return b }

func (f ConnClose) encodeBody(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, f.ConnID)
}

// AppendFrame appends one encoded control frame — type, length, body —
// to b. The body is encoded in place with its length prefix backfilled,
// and a frame passed by its concrete type is never boxed, so a caller
// building a record in a pooled buffer pays no allocation per frame. A
// control record's plaintext is its frames followed by the TTypeControl
// trailer.
func AppendFrame[F Frame](b []byte, f F) []byte {
	codecCtr.framesEncoded.Add(1)
	b = append(b, byte(f.frameType()), 0, 0)
	lenAt := len(b) - 2
	b = f.encodeBody(b)
	binary.BigEndian.PutUint16(b[lenAt:], uint16(len(b)-lenAt-2))
	return b
}

// AppendControl packs frames into one control-record plaintext
// (including the TType trailer), appending to b.
func AppendControl(b []byte, frames ...Frame) []byte {
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	return append(b, byte(TTypeControl))
}

// EncodeControl packs frames into one control-record plaintext
// (including the TType trailer).
func EncodeControl(frames ...Frame) []byte {
	return AppendControl(nil, frames...)
}

// MaxControlFrames caps how many frames one control record may carry.
// Frames can be as small as three bytes, so without a cap a single
// max-size record turns into thousands of frames to act on; no
// legitimate sender batches anywhere near this many.
const MaxControlFrames = 512

// NextFrame splits the first frame off a control-record content (without
// TType): its type, its body and what follows it. body and rest alias b.
// A receiver walks a record with it frame by frame — nothing is
// allocated — and stops at MaxControlFrames.
func NextFrame(b []byte) (ft FrameType, body, rest []byte, err error) {
	if len(b) < 3 {
		codecCtr.decodeErrors.Add(1)
		return 0, nil, nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(b[1:]))
	if len(b) < 3+n {
		codecCtr.decodeErrors.Add(1)
		return 0, nil, nil, ErrBadFrame
	}
	codecCtr.framesDecoded.Add(1)
	return FrameType(b[0]), b[3 : 3+n], b[3+n:], nil
}

// DecodeControl parses a control-record content (without TType) into
// frames, all of them or none.
func DecodeControl(b []byte) ([]Frame, error) {
	var frames []Frame
	for len(b) > 0 {
		if len(frames) >= MaxControlFrames {
			codecCtr.decodeErrors.Add(1)
			return nil, fmt.Errorf("%w: more than %d frames in one record", ErrBadFrame, MaxControlFrames)
		}
		ft, body, rest, err := NextFrame(b)
		if err != nil {
			return nil, err
		}
		f, err := DecodeFrame(ft, body)
		if err != nil {
			return nil, err
		}
		frames, b = append(frames, f), rest
	}
	return frames, nil
}

// ParseAck decodes an Ack frame body by value: the one frame a bulk
// receiver sends per ackInterval and a bulk sender must not box.
func ParseAck(body []byte) (Ack, error) {
	if len(body) != 12 {
		codecCtr.decodeErrors.Add(1)
		return Ack{}, ErrBadFrame
	}
	return Ack{binary.BigEndian.Uint32(body), binary.BigEndian.Uint64(body[4:])}, nil
}

// DecodeFrame decodes one frame body of the given type (see NextFrame).
// Nothing in the frame aliases body.
func DecodeFrame(ft FrameType, body []byte) (Frame, error) {
	f, err := decodeFrame(ft, body)
	if err != nil {
		codecCtr.decodeErrors.Add(1)
	}
	return f, err
}

func decodeFrame(ft FrameType, body []byte) (Frame, error) {
	switch ft {
	case FramePing:
		// A zero-length body is a legacy liveness ping (Seq 0).
		switch len(body) {
		case 0:
			return Ping{}, nil
		case 4:
			return Ping{binary.BigEndian.Uint32(body)}, nil
		}
		return nil, ErrBadFrame
	case FramePong:
		switch len(body) {
		case 0:
			return Pong{}, nil
		case 4:
			return Pong{binary.BigEndian.Uint32(body)}, nil
		}
		return nil, ErrBadFrame
	case FrameAck:
		if len(body) != 12 {
			return nil, ErrBadFrame
		}
		a, _ := ParseAck(body)
		return a, nil
	case FrameStreamOpen:
		if len(body) != 4 {
			return nil, ErrBadFrame
		}
		return StreamOpen{binary.BigEndian.Uint32(body)}, nil
	case FrameStreamClose:
		if len(body) != 12 {
			return nil, ErrBadFrame
		}
		return StreamClose{binary.BigEndian.Uint32(body), binary.BigEndian.Uint64(body[4:])}, nil
	case FrameAddAddress:
		addr, rest, ok := parseAddr(body)
		if !ok || len(rest) != 3 {
			return nil, ErrBadFrame
		}
		return AddAddress{addr, binary.BigEndian.Uint16(rest), rest[2] == 1}, nil
	case FrameRemoveAddress:
		addr, rest, ok := parseAddr(body)
		if !ok || len(rest) != 0 {
			return nil, ErrBadFrame
		}
		return RemoveAddress{addr}, nil
	case FrameBPFCC:
		if len(body) < 1 {
			return nil, ErrBadFrame
		}
		nameLen := int(body[0])
		if len(body) < 1+nameLen+4 {
			return nil, ErrBadFrame
		}
		name := string(body[1 : 1+nameLen])
		progLen := int(binary.BigEndian.Uint32(body[1+nameLen:]))
		rest := body[1+nameLen+4:]
		if len(rest) != progLen {
			return nil, ErrBadFrame
		}
		// Copy the bytecode ("no input aliasing"): the CC plugin
		// retains it long after the record buffer is recycled.
		return BPFCC{name, append([]byte(nil), rest...)}, nil
	case FrameSessionClose:
		return SessionClose{}, nil
	case FrameConnClose:
		if len(body) != 4 {
			return nil, ErrBadFrame
		}
		return ConnClose{binary.BigEndian.Uint32(body)}, nil
	}
	return nil, fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, ft)
}
