package bytering

import (
	"bytes"
	"flag"
	"math/rand"
	"testing"
	"time"
)

var seedFlag = flag.Int64("bytering.seed", 0, "seed for the randomized ring test (0: from the clock)")

// TestRingMatchesModel drives the ring through random writes, discards,
// views and spans — sized so it wraps and grows many times — against a
// plain byte slice.
func TestRingMatchesModel(t *testing.T) {
	seed := *seedFlag
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("seed %d (replay with -bytering.seed=%d)", seed, seed)
	rng := rand.New(rand.NewSource(seed))
	for _, limit := range []int{1, 100, minCap - 1, minCap, 3*minCap + 17, 64 << 10} {
		var r Ring
		var model []byte
		wraps := 0
		for step := 0; step < 4000; step++ {
			switch rng.Intn(3) {
			case 0:
				b := make([]byte, rng.Intn(2*limit+1))
				rng.Read(b)
				n := r.Write(b, limit)
				if want := min(len(b), limit-len(model)); n != want {
					t.Fatalf("limit %d: write took %d of %d with %d held, want %d", limit, n, len(b), len(model), want)
				}
				model = append(model, b[:n]...)
			case 1:
				n := rng.Intn(len(model) + 1)
				r.Discard(n)
				model = model[n:]
			case 2:
				if len(model) == 0 {
					continue
				}
				off := rng.Intn(len(model))
				n := 1 + rng.Intn(min(1400, len(model)-off))
				a, b := r.Spans(off, n)
				if !bytes.Equal(append(append([]byte(nil), a...), b...), model[off:off+n]) {
					t.Fatalf("limit %d step %d: Spans(%d,%d) differ from the model", limit, step, off, n)
				}
				got := r.View(off, n)
				if !bytes.Equal(got, model[off:off+n]) {
					t.Fatalf("limit %d step %d: View(%d,%d) differs from the model", limit, step, off, n)
				}
				if len(b) > 0 {
					wraps++
					if &got[0] != &r.wrap[0] {
						t.Fatalf("limit %d step %d: a straddling view aliases the ring", limit, step)
					}
				}
			}
			if r.Len() != len(model) || len(r.buf) > limit {
				t.Fatalf("limit %d: holds %d in an array of %d, model %d", limit, r.Len(), len(r.buf), len(model))
			}
		}
		if limit > 1400 && wraps == 0 {
			t.Errorf("limit %d: no span ever straddled the end of the ring", limit)
		}
	}
}

// TestSpansSurviveGrowth: spans cut before the ring grew still read the
// bytes they were cut over — the old array is abandoned, not reused.
func TestSpansSurviveGrowth(t *testing.T) {
	var r Ring
	first := bytes.Repeat([]byte{0xa5}, minCap)
	r.Write(first, 1<<20)
	a, b := r.Spans(0, minCap)
	r.Write(bytes.Repeat([]byte{0x5a}, 3*minCap), 1<<20)
	if !bytes.Equal(append(append([]byte(nil), a...), b...), first) {
		t.Fatal("a span cut before growth no longer reads its bytes")
	}
}
