package snapfile

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// FuzzDecode drives both snapshot decoders over arbitrary bytes, seeded
// with valid store and sharded images, new and as older encoders wrote
// them with their retired blocks (the fuzzer mutates them into
// truncations and bit flips). Any input must produce a clean error or a
// valid decode — never a panic, and never an out-of-range structure: the
// decoders' validation layer is exactly what keeps a forged file from
// crashing the query paths later.
func FuzzDecode(f *testing.F) {
	g := gen.Social(rand.New(rand.NewSource(1)), 60, 200, 3)
	f.Add(EncodeStore(buildStoreParts(g.Clone(), 3)))
	f.Add(readGolden(f, legacyStore))
	f.Add(EncodeSharded(buildShardedParts(g.Clone(), 2, 5)))
	f.Add(readGolden(f, legacySharded))
	f.Add([]byte("QPGSNAP1 but not really"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeStore(data); err == nil {
			// A decode that succeeds must uphold the invariants it claims
			// to validate.
			n := p.G.NumNodes()
			for _, c := range p.ReachClassOf {
				if int(c) < 0 || int(c) >= p.ReachGr.NumNodes() {
					t.Fatalf("accepted store snapshot with class %d of %d", c, p.ReachGr.NumNodes())
				}
			}
			if len(p.PatternBlockOf) != n {
				t.Fatalf("accepted store snapshot with %d block entries for %d nodes", len(p.PatternBlockOf), n)
			}
		}
		if p, err := DecodeSharded(data); err == nil {
			for v, s := range p.ShardOf {
				if int(s) < 0 || int(s) >= p.K {
					t.Fatalf("accepted sharded snapshot with node %d in shard %d of %d", v, s, p.K)
				}
			}
		}
	})
}
