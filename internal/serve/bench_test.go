package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/trace"
)

// cacheBenchBody is one TraceVariants variant of a trace shaped like
// perfbench's replay-zipf base: 640 objects of 12 to 28 pages, each
// allocated, written, read and freed, about 25 KB in all.
func cacheBenchBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	var base bytes.Buffer
	for id := 1; id <= 640; id++ {
		size := 49152 + rng.Intn(7)*16384
		fmt.Fprintf(&base, "a %d %d\nw %d %d\nr %d %d\nf %d\n",
			id, size, id, rng.Intn(size/8)*8, id, rng.Intn(64)*8, id)
	}
	vs, err := TraceVariants(base.Bytes(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return vs[1]
}

// BenchmarkCacheKey measures what keying one replay request costs: canonical
// is the parse and canonical key a raw-index miss pays, raw the body hash
// that answers a repeat.
func BenchmarkCacheKey(b *testing.B) {
	body := cacheBenchBody(b)
	b.Run("canonical", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tf, err := trace.ParseFile(bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			benchKey = keyForReplay(tf, false)
		}
	})
	b.Run("raw", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRawKey = rawKeyFor(body, overrides{})
		}
	})
}

// benchKey and benchRawKey keep BenchmarkCacheKey's results live.
var (
	benchKey    replayKey
	benchRawKey rawKey
)
