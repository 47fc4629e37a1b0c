package server

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/store"
)

// refEncodeResult is the match-result encoder the server used before
// encodeResult sized its output, one append per id: the reference for
// encodeResult's bytes.
func refEncodeResult(buf []byte, r *pattern.Result) []byte {
	if r.OK {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Sets)))
	for _, set := range r.Sets {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(set)))
		for _, v := range set {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return buf
}

// refEncodeBools is the MsgBools body after the epoch as the server
// appended it, one byte at a time.
func refEncodeBools(buf []byte, res []bool) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(res)))
	for _, b := range res {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// refEncodeBatchReach is the MsgBatchReach request as the client appended
// it, one id at a time.
func refEncodeBatchReach(minEpoch uint64, us, vs []graph.Node) []byte {
	req := binary.LittleEndian.AppendUint64(nil, minEpoch)
	req = binary.LittleEndian.AppendUint32(req, uint32(len(us)))
	for _, u := range us {
		req = binary.LittleEndian.AppendUint32(req, uint32(u))
	}
	for _, v := range vs {
		req = binary.LittleEndian.AppendUint32(req, uint32(v))
	}
	return req
}

// goldenResults are the match results whose bytes are held to the
// reference encoder: non-empty sets, an empty set among others, a failed
// match with no sets, and one set of 16 384 ids.
func goldenResults() map[string]*pattern.Result {
	big := make([]graph.Node, 16384)
	for i := range big {
		big[i] = graph.Node(i*131 + 7)
	}
	return map[string]*pattern.Result{
		"ok":        {OK: true, Sets: [][]graph.Node{{0, 1, 2}, {0x01020304}, {5, 1<<31 - 1}}},
		"empty set": {OK: true, Sets: [][]graph.Node{{4, 9}, {}, {3}}},
		"no match":  {OK: false, Sets: [][]graph.Node{}},
		"16384 ids": {OK: true, Sets: [][]graph.Node{big}},
	}
}

// dirty returns an empty buffer whose capacity holds stale bytes, as a
// connection's reused buffer does after a larger message, prefixed by an
// epoch as a response body is.
func dirty(capacity int) []byte {
	b := bytes.Repeat([]byte{0xaa}, capacity)
	return binary.LittleEndian.AppendUint64(b[:0], 42)
}

// TestWireBytesMatchReference holds the sized encoders — MsgMatched's
// result, MsgBools' answers and the MsgBatchReach request — to the
// reference encoders byte for byte, into a fresh buffer and into one whose
// capacity holds stale bytes.
func TestWireBytesMatchReference(t *testing.T) {
	epoch := binary.LittleEndian.AppendUint64(nil, 42)
	for name, r := range goldenResults() {
		want := refEncodeResult(slices.Clone(epoch), r)
		if got := encodeResult(slices.Clone(epoch), r); !bytes.Equal(got, want) {
			t.Errorf("result %q: %d bytes differ from the reference's %d", name, len(got), len(want))
		}
		if got := encodeResult(dirty(2*len(want)), r); !bytes.Equal(got, want) {
			t.Errorf("result %q into a reused buffer: bytes differ from the reference's", name)
		}
		back, err := decodeResult(&cursor{b: want, off: 8})
		if err != nil || back.OK != r.OK || !slices.EqualFunc(back.Sets, r.Sets, slices.Equal) {
			t.Errorf("result %q does not decode to itself: %v", name, err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 64, 16384} {
		res := make([]bool, n)
		us, vs := make([]graph.Node, n), make([]graph.Node, n)
		for i := range res {
			res[i] = rng.Intn(2) == 1
			us[i], vs[i] = graph.Node(rng.Int31()), graph.Node(rng.Int31())
		}
		want := refEncodeBools(slices.Clone(epoch), res)
		if got := encodeBools(slices.Clone(epoch), res); !bytes.Equal(got, want) {
			t.Errorf("%d bools: bytes differ from the reference's", n)
		}
		if got := encodeBools(dirty(2*len(want)), res); !bytes.Equal(got, want) {
			t.Errorf("%d bools into a reused buffer: bytes differ from the reference's", n)
		}
		minEpoch := rng.Uint64()
		want = refEncodeBatchReach(minEpoch, us, vs)
		if got := encodeBatchReach(nil, minEpoch, us, vs); !bytes.Equal(got, want) {
			t.Errorf("batch request of %d pairs: bytes differ from the reference's", n)
		}
		if got := encodeBatchReach(dirty(2 * len(want))[:0], minEpoch, us, vs); !bytes.Equal(got, want) {
			t.Errorf("batch request of %d pairs into a reused buffer: bytes differ from the reference's", n)
		}
	}
}

// TestResponsesMatchReference sends MsgMatch and MsgBatchReach requests of
// changing sizes through handleRequest on one connection's state and holds
// every response body to the reference encoders' bytes; an answer larger
// than maxKeptBuffer must not stay on the connection.
func TestResponsesMatchReference(t *testing.T) {
	s, err := store.Open(testGraph(3), &store.Options{Indexes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := New(Options{Backend: NewStoreBackend(s)})
	n := graph.Node(s.NumNodes())
	var cs connState
	ask := func(mt MsgType, body []byte) []byte {
		t.Helper()
		var got []byte
		err := srv.handleRequest(mt, body, func(rt MsgType, rbody []byte) error {
			if rt == MsgErr {
				t.Fatalf("request %#x: error response %q", byte(mt), rbody[9:])
			}
			got = slices.Clone(rbody)
			return nil
		}, &cs)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	epoch := binary.LittleEndian.AppendUint64(nil, s.Epoch())
	rng := rand.New(rand.NewSource(8))
	for _, pairs := range []int{64, 3, 70000, 5} {
		p := testPattern()
		want := refEncodeResult(slices.Clone(epoch), s.Match(p))
		if got := ask(MsgMatch, EncodePattern(make([]byte, 8), p)); !bytes.Equal(got, want) {
			t.Errorf("MsgMatched body of %d bytes differs from the reference's %d", len(got), len(want))
		}
		us, vs := make([]graph.Node, pairs), make([]graph.Node, pairs)
		for i := range us {
			us[i], vs[i] = graph.Node(rng.Intn(int(n))), graph.Node(rng.Intn(int(n)))
		}
		want = refEncodeBools(slices.Clone(epoch), s.BatchReachable(us, vs))
		if got := ask(MsgBatchReach, refEncodeBatchReach(0, us, vs)); !bytes.Equal(got, want) {
			t.Errorf("MsgBools body for %d pairs differs from the reference's", pairs)
		}
		if cap(cs.out) > maxKeptBuffer {
			t.Errorf("after %d pairs the connection keeps %d bytes, bound %d", pairs, cap(cs.out), maxKeptBuffer)
		}
	}
}

// TestDecodedSetsAreOwnViews appends to the first set of a decoded answer:
// the sets share one array, so the append must not reach the second.
func TestDecodedSetsAreOwnViews(t *testing.T) {
	body := encodeResult(nil, &pattern.Result{OK: true, Sets: [][]graph.Node{{1, 2}, {3, 4}}})
	r, err := decodeResult(&cursor{b: body})
	if err != nil {
		t.Fatal(err)
	}
	r.Sets[0] = append(r.Sets[0], 99)
	if !slices.Equal(r.Sets[1], []graph.Node{3, 4}) {
		t.Fatalf("appending to set 0 changed set 1 to %v", r.Sets[1])
	}
}

// FuzzDecodeResult holds the client's result decoder, which reads bytes a
// server sent, to three rules: it never panics, it refuses every count that
// overruns — a set count or a set length one past what the bytes after it
// hold — and whatever it accepts re-encodes to the same bytes with every
// set capacity-limited.
func FuzzDecodeResult(f *testing.F) {
	for name, r := range goldenResults() {
		if name != "16384 ids" {
			f.Add(encodeResult(nil, r))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 0})                                  // ok flag out of range
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff})                      // a set count no body holds
	f.Add([]byte{1, 2, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0})          // set 0's id is set 1's length word
	f.Add([]byte{1, 1, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0}) // a short last id
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeResult(&cursor{b: data})
		if err != nil {
			return
		}
		if got := encodeResult(nil, r); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different ones", len(data), len(got))
		}
		overrun := func(at int, what string) {
			b := slices.Clone(data)
			binary.LittleEndian.PutUint32(b[at:], uint32((len(b)-at-4)/4+1))
			if _, err := decodeResult(&cursor{b: b}); err == nil {
				t.Fatalf("%s past the %d bytes after it accepted", what, len(b)-at-4)
			}
		}
		overrun(1, "set count")
		at := 5
		for i, set := range r.Sets {
			if cap(set) != len(set) {
				t.Fatalf("set %d: %d ids with capacity %d", i, len(set), cap(set))
			}
			overrun(at, "set length")
			at += 4 + 4*len(set)
		}
	})
}
