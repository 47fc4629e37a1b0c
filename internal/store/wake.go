package store

import (
	"runtime"
	"sync"
	"time"
)

// Wake is the wake-up an epoch swap broadcasts: whoever moves a condition
// others wait on — the engine publishing an epoch or fencing itself, a
// follower catching up — calls Broadcast after the move, and Await parks
// until what it waits for is there. It replaces sleep-and-poll loops: a
// waiter costs nothing while parked and runs the moment the swap lands. The
// zero value is ready; with nobody parked Broadcast is one uncontended lock.
type Wake struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while someone is parked; Broadcast closes it
}

// Broadcast wakes every parked Await to look again and,
// if anyone was parked, yields the processor so that they run before the
// caller goes on. Call it after the state the condition reads has changed,
// and before telling anyone else about the change: the engine broadcasts
// an epoch before it sends the batch's results, and the order is measured,
// not taste. With one P a parked tail round that ships its frame before
// the ack is flushed costs the ack that one service, ≈ 0.1 ms. Without the
// yield the result send takes the woken round's turn, the ack is flushed
// first and the follower's socket is written last; netpoll hands out the
// goroutine of the socket written last first, and the follower's apply of
// the batch runs ahead of the client reading its ack: the ack lands ≈ 1 ms
// into that apply (EXPERIMENTS.md, "Visibility on a follower", has both
// event logs).
func (w *Wake) Broadcast() {
	w.mu.Lock()
	ch := w.ch
	w.ch = nil
	w.mu.Unlock()
	if ch != nil {
		close(ch)
		runtime.Gosched()
	}
}

// Await parks until ready reports true, timeout passes or cancel is closed,
// and reports whether ready held. It calls ready under the Wake's lock,
// which is what makes a Broadcast between the look and the park impossible
// to miss; ready must not call back into the Wake.
func (w *Wake) Await(ready func() bool, timeout time.Duration, cancel <-chan struct{}) bool {
	var timer *time.Timer
	for {
		w.mu.Lock()
		if ready() {
			w.mu.Unlock()
			return true
		}
		if w.ch == nil {
			w.ch = make(chan struct{})
		}
		ch := w.ch
		w.mu.Unlock()
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			return false
		case <-cancel:
			return false
		}
	}
}
