package server

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/store"
)

// The benchmark's social16 graph and pattern list (benchmark/workloads.go):
// 32 patterns of 4 nodes and 5 edges over 8 labels, bounds 1–2, drawn from
// seed 1 on the graph built from seed 1. The wire workload matches them on
// a follower of a store over this graph.
var (
	social16    = gen.Dataset{Name: "social16", V: 15500, E: 79600, Labels: 16, Kind: gen.KindSocial}
	patternSpec = gen.PatternSpec{Nodes: 4, Edges: 5, Lp: 8, K: 2}
)

// benchAnswers opens an in-memory store on social16 at epoch 0 and draws
// the benchmark's 32 patterns on it.
func benchAnswers(b *testing.B) (*store.Store, []*pattern.Pattern) {
	b.Helper()
	g := social16.Build(1)
	prng := rand.New(rand.NewSource(1))
	pats := make([]*pattern.Pattern, 32)
	for i := range pats {
		pats[i] = gen.Pattern(prng, g, patternSpec)
	}
	s, err := store.Open(g, &store.Options{Indexes: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s, pats
}

// fixedBackend answers the patterns, asked in their order, with the results
// recorded for them, so a MsgMatch through handleRequest costs the request's
// decode, the answer's encode and nothing of the match.
type fixedBackend struct {
	Backend
	answers []*pattern.Result
	next    int
}

func (f *fixedBackend) Match(*pattern.Pattern) (*pattern.Result, uint64) {
	r := f.answers[f.next%len(f.answers)]
	f.next++
	return r, f.Epoch()
}

// BenchmarkResultCodec encodes each of the 32 answers as the server does
// (handleRequest on one connection's state, the match replaced by its
// recorded answer) and decodes it as the client does, and reports the
// time per answer. Ids per answer are reported beside it.
func BenchmarkResultCodec(b *testing.B) {
	s, pats := benchAnswers(b)
	fb := &fixedBackend{Backend: NewStoreBackend(s)}
	reqs := make([][]byte, len(pats))
	ids := 0
	for i, p := range pats {
		fb.answers = append(fb.answers, s.Match(p))
		reqs[i] = EncodePattern(make([]byte, 8), p)
		ids += fb.answers[i].Size()
	}
	srv := New(Options{Backend: fb})
	var cs connState
	decoded := 0
	emit := func(t MsgType, body []byte) error {
		r, err := decodeResult(&cursor{b: body, off: 8})
		if err != nil || t != MsgMatched {
			b.Fatalf("response %#x: %v", byte(t), err)
		}
		decoded += r.Size()
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			srv.handleRequest(MsgMatch, req, emit, &cs)
		}
	}
	b.StopTimer()
	if decoded != ids*b.N {
		b.Fatalf("decoded %d ids, want %d", decoded, ids*b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pats)), "ns/answer")
	b.ReportMetric(float64(ids)/float64(len(pats)), "ids/answer")
}

// BenchmarkMatchRoundTrip runs the 32 patterns on social16 at epoch 0 in
// process (Store.Match) and through a loopback server and client, and
// reports each side's time per pattern; wire ÷ inproc is what the network
// tier adds to a Match.
func BenchmarkMatchRoundTrip(b *testing.B) {
	s, pats := benchAnswers(b)
	b.Run("inproc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pats {
				s.Match(p)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(pats)), "us/pattern")
	})
	b.Run("wire", func(b *testing.B) {
		srv, err := Start("127.0.0.1:0", Options{Backend: NewStoreBackend(s)})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		c.SetTimeout(30 * time.Second)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pats {
				if _, _, err := c.Match(p, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*len(pats)), "us/pattern")
	})
}
