package server

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

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
	f.Add(byte(MsgSnapshot), []byte{})
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0))
	f.Add(byte(MsgTail), tailBody(1<<40, 3, 1<<31, 0)) // a hold far past the clamp
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0)[:16])    // the pre-hold body: short
	f.Add(byte(0xee), []byte{1, 2, 3})
	f.Add(byte(MsgTail), tailBody(1, 0, 0, 0)[:20]) // the pre-lineage body: short
	f.Add(byte(MsgTail), tailBody(0, 0, 0, 1<<63))  // a lineage the store never drew: an image
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
