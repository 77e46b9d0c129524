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

// RunDaemon is the serving tail vcprofd and vcgate share: listen on
// addr, print "listening on <host:port>" once the socket is bound
// (scripts parse this to discover a random port), serve h until
// SIGINT/SIGTERM, then drain. shutdown gets the drain budget to finish
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
