package server

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/queries"
	"repro/internal/store"
)

// FuzzDecodeFrame holds the frame splitter to the snapfile contract:
// arbitrary bytes — truncated, bit-flipped, adversarial — error or decode,
// never panic, and a decoded frame must re-encode to the consumed bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, byte(MsgPing)})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})
	req := binary.LittleEndian.AppendUint32(nil, 14)
	req = append(req, byte(MsgReach))
	req = append(req, reachBody(0, 1, 2)...)
	f.Add(req)
	f.Fuzz(func(t *testing.T, data []byte) {
		mt, body, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < 5 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if int(binary.LittleEndian.Uint32(data[0:4])) != 1+len(body) {
			t.Fatalf("frame length %d does not cover type + %d body bytes",
				binary.LittleEndian.Uint32(data[0:4]), len(body))
		}
		if MsgType(data[4]) != mt {
			t.Fatalf("type %#x decoded as %#x", data[4], mt)
		}
	})
}

// fuzzServer lazily builds one tiny store-backed server shared by all
// FuzzHandleRequest executions (building a store per input would dominate
// the fuzz budget).
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServerInstance() *Server {
	fuzzOnce.Do(func() {
		s, err := store.Open(testGraph(11), &store.Options{Indexes: true})
		if err != nil {
			panic(err)
		}
		fuzzSrv = New(Options{
			Backend: NewStoreBackend(s),
			// A forged minEpoch beyond the frontier must fail fast, not
			// stall the fuzzer for the default five seconds.
			EpochWaitTimeout: time.Millisecond,
		})
	})
	return fuzzSrv
}

// FuzzHandleRequest drives the full request dispatcher with arbitrary
// frames: whatever arrives, handling must not panic and every emitted
// response must carry a response-typed tag and a decodable epoch.
func FuzzHandleRequest(f *testing.F) {
	f.Add(byte(MsgPing), []byte{})
	f.Add(byte(MsgReach), reachBody(0, 1, 2))
	f.Add(byte(MsgReach), append(reachBody(0, 1, 2)[:16], 0xff)) // onG flag out of range
	f.Add(byte(MsgBatchReach), binary.LittleEndian.AppendUint32(make([]byte, 8), 0))
	f.Add(byte(MsgMatch), make([]byte, 16))
	f.Add(byte(MsgApply), binary.LittleEndian.AppendUint32(nil, 0))
	f.Add(byte(MsgStats), []byte{})
	f.Add(byte(MsgTail), tailBody(0, 0, 0, 0)) // from 1 with lineage 0: an image
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0))
	f.Add(byte(MsgTail), tailBody(1<<40, 3, 1<<31, 0)) // a hold far past the clamp
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0)[:16])    // the pre-hold body: short
	f.Add(byte(0xee), []byte{1, 2, 3})
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0)[:20]) // the pre-lineage body: short
	f.Add(byte(MsgTail), tailBody(0, 0, 0, 1<<63))  // a lineage the store never drew: an image
	f.Add(byte(MsgMatch), EncodePattern(make([]byte, 8), farPattern(1<<20)))
	f.Add(byte(MsgMatch), EncodePattern(make([]byte, 8), farPattern(9)))
	f.Add(byte(MsgMatch), EncodePattern(make([]byte, 8), wideLabelPattern(65))) // one node past the cap
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		srv := fuzzServerInstance()
		emitted := 0
		err := srv.handleRequest(MsgType(typ), body, func(mt MsgType, rbody []byte) error {
			emitted++
			if mt < MsgErr {
				t.Fatalf("response frame carries request type %#x", byte(mt))
			}
			if len(rbody) < 8 {
				t.Fatalf("response body of %d bytes has no epoch", len(rbody))
			}
			return nil
		}, &connState{})
		if err != nil {
			t.Fatalf("emit never fails here, handler returned %v", err)
		}
		if emitted == 0 {
			t.Fatal("request produced no response")
		}
	})
}

// TestFuzzSeedsPass replays the seed corpus through both fuzz surfaces so
// plain `go test` exercises them even when fuzzing is off.
func TestFuzzSeedsPass(t *testing.T) {
	srv := fuzzServerInstance()
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2000; i++ {
		raw := make([]byte, rng.Intn(64))
		rng.Read(raw)
		DecodeFrame(raw)
		srv.handleRequest(MsgType(rng.Intn(256)), raw, func(MsgType, []byte) error { return nil }, &connState{})
	}
}

// farPattern is a three-node cycle L0 → L1 → L2 → L0 whose edges all carry
// bound: a bound above the matcher's counter levels must cost a reverse
// BFS, never bound·|V| counters.
func farPattern(bound int) *pattern.Pattern {
	p := pattern.New()
	a, b, c := p.AddNode("L0"), p.AddNode("L1"), p.AddNode("L2")
	p.AddEdge(a, b, bound)
	p.AddEdge(b, c, bound)
	p.AddEdge(c, a, bound)
	p.AddEdge(a, a, bound)
	return p
}

// roundsFixpoint is the round-based greatest fixpoint (one reverse BFS per
// pattern edge per round, until a round changes nothing): the oracle for a
// bound that is not *.
func roundsFixpoint(c *graph.CSR, p *pattern.Pattern) *pattern.Result {
	np, n := p.NumNodes(), c.NumNodes()
	sim := make([][]bool, np)
	for u := range sim {
		sim[u] = make([]bool, n)
		for v := range n {
			sim[u][v] = c.Labels().Name(c.Label(graph.Node(v))) == p.Label(int32(u))
		}
	}
	for changed := true; changed; {
		changed = false
		for u := range np {
			for _, e := range p.EdgesFrom(int32(u)) {
				allowed := queries.ReverseWithinCSR(c, sim[e.To], e.Bound)
				for v := range n {
					if sim[u][v] && !allowed[v] {
						sim[u][v], changed = false, true
					}
				}
			}
		}
	}
	res := &pattern.Result{OK: true, Sets: make([][]graph.Node, np)}
	for u := range sim {
		for v, in := range sim[u] {
			if in {
				res.Sets[u] = append(res.Sets[u], graph.Node(v))
			}
		}
		if len(res.Sets[u]) == 0 {
			return &pattern.Result{OK: false}
		}
	}
	return res
}

// maxFarAllocPerNode caps the bytes one far-bound MsgMatch may allocate per
// node of G. The request allocates 27.8–29.8 (candidate sets, one reverse
// BFS at a time, the expanded answer, its encode and decode), and up to 33.7
// under the race detector, whose sync.Pool drops scratches at random; the
// cap is that plus 10 %. Encoding an id at a time into a buffer grown from 8
// bytes, and decoding into one array per set, took 37.1–39.1; counters sized
// by the bound would need up to 4·2^20.
const maxFarAllocPerNode = 37

// TestMatchFarBoundsOverWire sends patterns with bounds 2^20 (the most the
// wire accepts) and 9 (one past the counter levels) through handleRequest on
// a 12 000-node graph. The 2^20 answer must equal the same pattern with *,
// the 9 answer the round-based fixpoint, and neither request may allocate
// more than maxFarAllocPerNode bytes per node.
func TestMatchFarBoundsOverWire(t *testing.T) {
	const n = 12000
	s, err := store.Open(gen.Social(rand.New(rand.NewSource(29)), n, 4*n, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := New(Options{Backend: NewStoreBackend(s)})
	g := s.Snapshot().G
	for _, bound := range []int{1 << 20, 9} {
		body := EncodePattern(make([]byte, 8), farPattern(bound))
		var got *pattern.Result
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := srv.handleRequest(MsgMatch, body, func(mt MsgType, rbody []byte) error {
			if mt != MsgMatched {
				return fmt.Errorf("response %#x: %q", byte(mt), rbody)
			}
			var derr error
			got, derr = decodeResult(&cursor{b: rbody, off: 8})
			return derr
		}, &connState{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		want := roundsFixpoint(g, farPattern(bound))
		if bound == 1<<20 {
			want = pattern.MatchCSR(g, farPattern(pattern.Unbounded))
		}
		if !want.OK || got.OK != want.OK || !slices.EqualFunc(got.Sets, want.Sets, slices.Equal) {
			t.Fatalf("bound %d: answer (ok %v, %d pairs) differs from the oracle (ok %v, %d pairs)",
				bound, got.OK, got.Size(), want.OK, want.Size())
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("bound %d: %d pairs, %d bytes allocated (%.1f per node)", bound, got.Size(), alloc, float64(alloc)/n)
		if alloc > maxFarAllocPerNode*n {
			t.Errorf("bound %d allocated %d bytes, ceiling %d", bound, alloc, maxFarAllocPerNode*n)
		}
	}
}
