package instcache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"rbpebble/internal/obs"
)

// testFlight is one Flight call running on its own goroutine, whose fn
// hands out its context and blocks until released or canceled.
type testFlight struct {
	fctx    context.Context // the context fn runs under
	release chan struct{}
	err     chan error // Flight's return
	fnErr   chan error // fn's context error when fn returned
}

// lead starts a Flight for "k" under ctx and waits until its fn runs.
func lead(c *Cache, ctx context.Context) *testFlight {
	fl := &testFlight{release: make(chan struct{}), err: make(chan error, 1), fnErr: make(chan error, 1)}
	fctxs := make(chan context.Context, 1)
	go func() {
		_, _, _, _, err := c.Flight(ctx, "k", 3, func(fctx context.Context, _ *Value) (Value, error) {
			fctxs <- fctx
			select {
			case <-fl.release:
			case <-fctx.Done():
			}
			fl.fnErr <- fctx.Err()
			return Value{UpperScaled: 10, LowerScaled: 5, Tier: 3}, nil
		})
		fl.err <- err
	}()
	fl.fctx = <-fctxs
	return fl
}

// join latches a waiter onto the running flight for "k" and returns
// the channel its Flight error arrives on.
func join(t *testing.T, c *Cache, ctx context.Context) <-chan error {
	t.Helper()
	before := c.Stats().SharedFlights
	errs := make(chan error, 1)
	go func() {
		_, _, shared, _, err := c.Flight(ctx, "k", 3, func(context.Context, *Value) (Value, error) {
			t.Error("a waiter must not run fn")
			return Value{}, nil
		})
		if !shared {
			t.Error("waiter did not share the flight")
		}
		errs <- err
	}()
	for c.Stats().SharedFlights == before {
		time.Sleep(time.Millisecond)
	}
	return errs
}

func (fl *testFlight) wantCanceled(t *testing.T) {
	t.Helper()
	select {
	case <-fl.fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("fn's context still live with no caller waiting")
	}
}

func (fl *testFlight) wantLive(t *testing.T) {
	t.Helper()
	select {
	case <-fl.fctx.Done():
		t.Fatal("fn's context canceled while a caller still waits")
	case <-time.After(30 * time.Millisecond):
	}
}

// finish releases fn and checks that it returned with its context live
// and that the leader got no error.
func (fl *testFlight) finish(t *testing.T) {
	t.Helper()
	close(fl.release)
	if err := <-fl.fnErr; err != nil {
		t.Fatalf("fn's context canceled before it returned: %v", err)
	}
	if err := <-fl.err; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestFlightCancellation pins the flight's lifetime rule: fn's context
// is canceled exactly when no caller, leader or waiter, still waits on
// the flight, and it carries the leader's trace but not its deadline.
func TestFlightCancellation(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, c *Cache)
	}{
		{"canceled leader alone", func(t *testing.T, c *Cache) {
			lctx, cancelLeader := context.WithCancel(context.Background())
			fl := lead(c, lctx)
			cancelLeader()
			fl.wantCanceled(t)
			if err := <-fl.err; err != nil {
				t.Fatalf("leader: %v", err)
			}
		}},
		{"canceled leader, live waiter", func(t *testing.T, c *Cache) {
			lctx, cancelLeader := context.WithCancel(context.Background())
			wctx, cancelWaiter := context.WithCancel(context.Background())
			fl := lead(c, lctx)
			waiter := join(t, c, wctx)
			cancelLeader()
			fl.wantLive(t)
			cancelWaiter()
			fl.wantCanceled(t)
			if err := <-waiter; !errors.Is(err, context.Canceled) {
				t.Fatalf("waiter err = %v, want context.Canceled", err)
			}
			<-fl.err
		}},
		{"waiter that received the result", func(t *testing.T, c *Cache) {
			lctx, cancelLeader := context.WithCancel(context.Background())
			wctx, cancelWaiter := context.WithCancel(context.Background())
			first := lead(c, lctx)
			waiter := join(t, c, wctx)
			first.finish(t)
			if err := <-waiter; err != nil {
				t.Fatalf("waiter: %v", err)
			}
			// The next flight for the key belongs to its own callers: the
			// first flight's callers going away must not touch it.
			second := lead(c, context.Background())
			cancelLeader()
			cancelWaiter()
			second.wantLive(t)
			second.finish(t)
		}},
		{"late caller after the count reached zero", func(t *testing.T, c *Cache) {
			// The first flight's fn keeps running past its cancellation,
			// as a solve does while it certifies its partial interval.
			lctx, cancelLeader := context.WithCancel(context.Background())
			fctxs := make(chan context.Context, 1)
			unblockFirst, firstDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(firstDone)
				c.Flight(lctx, "k", 3, func(fctx context.Context, _ *Value) (Value, error) {
					fctxs <- fctx
					<-unblockFirst
					return Value{UpperScaled: 30, LowerScaled: 1, Tier: 3}, nil
				})
			}()
			finishFirst := sync.OnceFunc(func() { close(unblockFirst); <-firstDone })
			defer finishFirst()
			cancelLeader()
			<-(<-fctxs).Done()

			// A caller arriving now runs a flight of its own.
			type result struct {
				v      Value
				shared bool
				err    error
			}
			started, unblockLate, late := make(chan struct{}), make(chan struct{}), make(chan result, 1)
			go func() {
				v, _, shared, _, err := c.Flight(context.Background(), "k", 3, func(context.Context, *Value) (Value, error) {
					close(started)
					<-unblockLate
					return Value{UpperScaled: 12, LowerScaled: 12, Optimal: true}, nil
				})
				late <- result{v, shared, err}
			}()
			select {
			case <-started:
			case <-time.After(2 * time.Second):
				t.Fatal("late caller latched onto the canceled flight instead of running its own")
			}
			// The canceled flight finishing leaves the late caller's
			// flight in place for the callers after it.
			finishFirst()
			third := join(t, c, context.Background())
			close(unblockLate)
			r := <-late
			if r.err != nil || r.shared || !r.v.Optimal || r.v.UpperScaled != 12 {
				t.Fatalf("late caller = %+v shared=%v err=%v, want its own [12,12]", r.v, r.shared, r.err)
			}
			if err := <-third; err != nil {
				t.Fatalf("third caller: %v", err)
			}
		}},
		{"leader's trace, not its deadline", func(t *testing.T, c *Cache) {
			tctx := obs.WithTrace(context.Background(), &obs.Trace{ID: "flight-trace"})
			lctx, cancel := context.WithTimeout(tctx, time.Hour)
			defer cancel()
			fl := lead(c, lctx)
			if got := obs.TraceIDFrom(fl.fctx); got != "flight-trace" {
				t.Errorf("fn's trace = %q, want the leader's", got)
			}
			if d, ok := fl.fctx.Deadline(); ok {
				t.Errorf("fn's context has the leader's deadline %v", d)
			}
			fl.finish(t)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New(8)) })
	}
}
