package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// TCP option kinds (IANA registry values).
const (
	optEOL               = 0
	optNOP               = 1
	OptKindMSS           = 2
	OptKindWindowScale   = 3
	OptKindSACKPermitted = 4
	OptKindSACK          = 5
	OptKindTimestamps    = 8
	OptKindUserTimeout   = 28
	// OptKindExperiment is the shared experimental codepoint (RFC 6994);
	// our userspace stack uses it for stack-version negotiation in tests.
	OptKindExperiment = 254
)

// MaxWindowScale is the largest usable window-scale shift (RFC 7323
// §2.3). Received values above it must be clamped, not honored.
const MaxWindowScale = 14

// Option is a single TCP option as kind plus raw data. EOL and NOP are
// handled by the marshaller and never appear in Segment.Options.
type Option struct {
	Kind uint8
	Data []byte
}

// wireLen returns the encoded size of the option.
func (o *Option) wireLen() int { return 2 + len(o.Data) }

// put encodes the option into b and returns the number of bytes written.
func (o *Option) put(b []byte) int {
	b[0] = o.Kind
	b[1] = uint8(2 + len(o.Data))
	copy(b[2:], o.Data)
	return 2 + len(o.Data)
}

// String renders the option for traces.
func (o *Option) String() string {
	switch o.Kind {
	case OptKindMSS:
		if v, ok := o.MSS(); ok {
			return fmt.Sprintf("mss %d", v)
		}
	case OptKindWindowScale:
		if len(o.Data) == 1 {
			return fmt.Sprintf("wscale %d", o.Data[0])
		}
	case OptKindSACKPermitted:
		return "sackOK"
	case OptKindSACK:
		if blocks, ok := o.SACKBlocks(); ok {
			return fmt.Sprintf("sack %v", blocks)
		}
	case OptKindTimestamps:
		if v, e, ok := o.Timestamps(); ok {
			return fmt.Sprintf("ts val %d ecr %d", v, e)
		}
	case OptKindUserTimeout:
		if d, ok := o.UserTimeout(); ok {
			return fmt.Sprintf("uto %s", d)
		}
	}
	return fmt.Sprintf("opt%d(%d bytes)", o.Kind, len(o.Data))
}

// parseOptions decodes the option block, appending to opts. Each Option's
// Data aliases b — callers that retain options past the packet's lifetime
// (the buffer may be recycled) must deep-copy Data.
func parseOptions(opts []Option, b []byte) ([]Option, error) {
	for len(b) > 0 {
		switch b[0] {
		case optEOL:
			return opts, nil
		case optNOP:
			b = b[1:]
		default:
			if len(b) < 2 {
				return nil, ErrTruncated
			}
			n := int(b[1])
			if n < 2 || n > len(b) {
				return nil, ErrTruncated
			}
			opts = append(opts, Option{Kind: b[0], Data: b[2:n:n]})
			b = b[n:]
		}
	}
	return opts, nil
}

// MSSOption builds a Maximum Segment Size option.
func MSSOption(mss uint16) Option {
	d := make([]byte, 2)
	binary.BigEndian.PutUint16(d, mss)
	return Option{Kind: OptKindMSS, Data: d}
}

// MSS decodes an MSS option.
func (o *Option) MSS() (uint16, bool) {
	if o.Kind != OptKindMSS || len(o.Data) != 2 {
		return 0, false
	}
	return binary.BigEndian.Uint16(o.Data), true
}

// WindowScaleOption builds a window-scale option (RFC 7323).
func WindowScaleOption(shift uint8) Option {
	return Option{Kind: OptKindWindowScale, Data: []byte{shift}}
}

// WindowScale decodes a window-scale option.
func (o *Option) WindowScale() (uint8, bool) {
	if o.Kind != OptKindWindowScale || len(o.Data) != 1 {
		return 0, false
	}
	return o.Data[0], true
}

// SACKPermittedOption builds a SACK-permitted option.
func SACKPermittedOption() Option { return Option{Kind: OptKindSACKPermitted} }

// SACKBlock is one contiguous received range advertised in a SACK option.
type SACKBlock struct {
	Left  uint32 // first sequence number of the block
	Right uint32 // sequence number immediately past the block
}

// String renders the block as a half-open interval.
func (b SACKBlock) String() string { return fmt.Sprintf("[%d,%d)", b.Left, b.Right) }

// SACKOption builds a SACK option. At most 4 blocks fit in 34 bytes; real
// stacks usually carry at most 3 alongside timestamps — the exact squeeze
// §3.1 of the TCPLS paper complains about.
func SACKOption(blocks []SACKBlock) Option {
	if len(blocks) > 4 {
		blocks = blocks[:4]
	}
	d := make([]byte, 8*len(blocks))
	for i, bl := range blocks {
		binary.BigEndian.PutUint32(d[i*8:], bl.Left)
		binary.BigEndian.PutUint32(d[i*8+4:], bl.Right)
	}
	return Option{Kind: OptKindSACK, Data: d}
}

// SACKBlocks decodes a SACK option.
func (o *Option) SACKBlocks() ([]SACKBlock, bool) {
	if o.Kind != OptKindSACK || len(o.Data)%8 != 0 {
		return nil, false
	}
	blocks := make([]SACKBlock, len(o.Data)/8)
	for i := range blocks {
		blocks[i].Left = binary.BigEndian.Uint32(o.Data[i*8:])
		blocks[i].Right = binary.BigEndian.Uint32(o.Data[i*8+4:])
	}
	return blocks, true
}

// TimestampsOption builds an RFC 7323 timestamps option.
func TimestampsOption(val, ecr uint32) Option {
	d := make([]byte, 8)
	binary.BigEndian.PutUint32(d, val)
	binary.BigEndian.PutUint32(d[4:], ecr)
	return Option{Kind: OptKindTimestamps, Data: d}
}

// Timestamps decodes a timestamps option.
func (o *Option) Timestamps() (val, ecr uint32, ok bool) {
	if o.Kind != OptKindTimestamps || len(o.Data) != 8 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(o.Data), binary.BigEndian.Uint32(o.Data[4:]), true
}

// UserTimeoutOption builds an RFC 5482 User Timeout option. The value is
// 15 bits with a granularity bit: seconds (g=0) or minutes (g=1).
func UserTimeoutOption(d time.Duration) Option {
	secs := uint32(d / time.Second)
	var v uint16
	if secs <= 0x7fff {
		v = uint16(secs)
	} else {
		mins := secs / 60
		if mins > 0x7fff {
			mins = 0x7fff
		}
		v = 1<<15 | uint16(mins)
	}
	buf := make([]byte, 2)
	binary.BigEndian.PutUint16(buf, v)
	return Option{Kind: OptKindUserTimeout, Data: buf}
}

// UserTimeout decodes an RFC 5482 User Timeout option.
func (o *Option) UserTimeout() (time.Duration, bool) {
	if o.Kind != OptKindUserTimeout || len(o.Data) != 2 {
		return 0, false
	}
	v := binary.BigEndian.Uint16(o.Data)
	if v&(1<<15) != 0 {
		return time.Duration(v&0x7fff) * time.Minute, true
	}
	return time.Duration(v) * time.Second, true
}

// FindOption returns the first option with the given kind, or nil.
func FindOption(opts []Option, kind uint8) *Option {
	for i := range opts {
		if opts[i].Kind == kind {
			return &opts[i]
		}
	}
	return nil
}

// StripOptions removes every option whose kind is in kinds, returning the
// filtered slice. Middleboxes use it to simulate option-stripping.
func StripOptions(opts []Option, kinds ...uint8) []Option {
	out := opts[:0:0]
	for _, o := range opts {
		keep := true
		for _, k := range kinds {
			if o.Kind == k {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, o)
		}
	}
	return out
}
