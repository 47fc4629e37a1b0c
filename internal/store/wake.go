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

// Broadcast wakes every parked Await to look again and, if anyone was
// parked, yields the processor. Call it after the state the condition reads
// has changed, and before telling anyone else about the change: the engine
// broadcasts an epoch before it sends the batch's results. At one P the
// yield usually lets a parked tail round ship its frame before the ack is
// flushed, for ≈ 0.04 ms of service, so the follower's apply of the batch
// runs after the client has read its ack. Without the yield the result send
// takes the woken round's turn, the follower's socket is written last,
// netpoll runs the goroutine of the socket written last first, and the ack
// lands ≈ 1 ms into the follower's apply. The yield is no guarantee:
// Gosched puts the caller behind every goroutine runnable at that moment,
// not only the ones it woke, and a GC cycle or the background checkpoint
// can still hand the follower's read and apply the processor first. Over
// 168 traced writes on wire-repl the follower went first in 4, and in about
// half the writes the benchmark's timer-driven speedometer also ran inside
// the yield, for 0.1–0.26 ms (EXPERIMENTS.md, "Visibility on a follower",
// has the traces and the earlier one-P event logs).
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
