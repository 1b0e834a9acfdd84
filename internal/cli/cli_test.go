package cli

import (
	"bytes"
	"io"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGuardMapsPanicToExitError: a crash must never read as status 2.
func TestGuardMapsPanicToExitError(t *testing.T) {
	var stderr bytes.Buffer
	status := guard(func([]string, <-chan struct{}, io.Writer, io.Writer) int {
		panic("frontier exploded")
	}, nil, nil, io.Discard, &stderr)
	if status != ExitError {
		t.Fatalf("status %d, want %d", status, ExitError)
	}
	if out := stderr.String(); !strings.Contains(out, "panic: frontier exploded") || !strings.Contains(out, "goroutine") {
		t.Fatalf("stderr lacks the panic or its stack:\n%s", out)
	}
}

// TestGuardPassesStatusThrough: arguments, streams and the status are run's.
func TestGuardPassesStatusThrough(t *testing.T) {
	var stdout bytes.Buffer
	status := guard(func(args []string, _ <-chan struct{}, out, _ io.Writer) int {
		io.WriteString(out, strings.Join(args, ","))
		return ExitTruncated
	}, []string{"-a", "b"}, nil, &stdout, io.Discard)
	if status != ExitTruncated || stdout.String() != "-a,b" {
		t.Fatalf("status %d, stdout %q", status, stdout.String())
	}
}

// TestFirstSignalClosesInterrupt: SIGTERM closes the channel instead of
// killing the process.
func TestFirstSignalClosesInterrupt(t *testing.T) {
	interrupt, stop := notifyInterrupt()
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-interrupt:
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not close the interrupt channel")
	}
}
