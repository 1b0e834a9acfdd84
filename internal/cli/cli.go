// Package cli is the process shell sctrun, sctbench and sctserve share: the
// exit-status contract, the signal mapping, and a main that can only leave
// through that contract. Each command keeps its flags and its testable
// run(args, interrupt, stdout, stderr) and hands it to Main.
package cli

import (
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"syscall"
)

// Exit statuses (also asserted by the CLI tests and the CI resume and
// distributed smokes): a found bug outranks truncation.
const (
	ExitClean     = 0 // ran to its end, no bug
	ExitBug       = 1 // at least one bug found
	ExitTruncated = 2 // cut short (signal, -max-wall) without a bug
	ExitError     = 3 // usage or internal error
)

// Run is a command's entry point: it parses args, does the work and returns
// the exit status. interrupt is closed on the first SIGINT/SIGTERM; tests
// pass nil (or their own channel) and drive truncation themselves.
type Run func(args []string, interrupt <-chan struct{}, stdout, stderr io.Writer) int

// Main runs the command on the process's arguments and streams and exits
// with its status.
func Main(run Run) {
	interrupt, stop := notifyInterrupt()
	status := guard(run, os.Args[1:], interrupt, os.Stdout, os.Stderr)
	stop()
	os.Exit(status)
}

// guard calls run and turns a panic on its goroutine into ExitError, with
// the panic and its stack on stderr. The Go runtime would exit 2 — which the
// contract, and every script that tests $?, reads as "truncated, no bug".
func guard(run Run, args []string, interrupt <-chan struct{}, stdout, stderr io.Writer) (status int) {
	defer func() {
		if rec := recover(); rec != nil {
			fmt.Fprintf(stderr, "panic: %v\n\n%s", rec, debug.Stack())
			status = ExitError
		}
	}()
	return run(args, interrupt, stdout, stderr)
}

// notifyInterrupt maps the first SIGINT/SIGTERM to closing the returned
// channel — the explore drivers poll it once per execution and flush a
// checkpoint, a coordinator drains, workers park. A second signal kills the
// process the usual way.
func notifyInterrupt() (<-chan struct{}, func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	interrupt := make(chan struct{})
	var once sync.Once
	go func() {
		for range ch {
			once.Do(func() { close(interrupt) })
			signal.Stop(ch)
		}
	}()
	return interrupt, func() { signal.Stop(ch) }
}
