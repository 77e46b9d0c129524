package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// RunDaemon is vcprofd's serving tail, over the local engine or a gate's
// router alike: listen on addr, print "listening on <host:port>" once
// the socket is bound (scripts parse this to discover a random port),
// serve h until SIGINT/SIGTERM, then drain. shutdown gets the drain budget to finish
// in-flight work while the HTTP surface stays up — clients see 503 on
// submit and can still poll and fetch what completes during the drain —
// and only then does the listener close. name prefixes the one
// diagnostic a failed drain prints.
func RunDaemon(name, addr string, h http.Handler, drain time.Duration, shutdown func(context.Context) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard

	fmt.Fprintln(os.Stderr, "draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", name, err)
	}
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		httpSrv.Close()
	}
	fmt.Fprintln(os.Stderr, "bye")
	return nil
}

// Every calls f with the tick's time every interval, on a goroutine of
// its own, until ctx ends or stop is called; stop waits for that
// goroutine to exit and may be called more than once.
func Every(ctx context.Context, interval time.Duration, f func(time.Time)) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				f(now)
			}
		}
	}()
	return func() { cancel(); <-done }
}

// Drain is a backend's shutdown barrier: it waits for wait to return,
// and if ctx ends first it aborts (cancels the base context every job
// runs under) and still waits, so nothing wait covers outlives it. abort
// runs once more either way. The error is ctx's when its deadline forced
// the abort.
func Drain(ctx context.Context, wait func(), abort context.CancelFunc) error {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		abort()
		<-done
	}
	abort()
	return err
}
