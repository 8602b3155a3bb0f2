package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as the sod2 CLI: with
// SOD2_RUN_MAIN set, the process is the command, not the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("SOD2_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs sod2 with args in a child process and returns its exit
// code and stderr. A command still running after a minute is killed
// (exit code -1): a flag check that lets `serve` start never returns.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SOD2_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &ee):
		return ee.ExitCode(), stderr.String()
	default:
		t.Fatalf("sod2 %v: %v", args, err)
		return 0, ""
	}
}

// Bad flag values fail fast with a message instead of crashing a
// subcommand, sending an invalid shape over the wire or being silently
// replaced. A negative or NaN count, size, cap or rate, and a -gate
// outside [0,1], is a usage error (exit 2) caught before any subcommand
// runs; an unknown -device fails `run` (exit 1).
func TestBadFlagValuesFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"sample", "-model", "SkipNet", "-size", "-1"}, 2, "-size (-1) must be non-negative"},
		{[]string{"serve", "-model", "SkipNet", "-burst", "-1"}, 2, "-burst (-1) must be non-negative"},
		{[]string{"serve", "-drain-grace", "-2s"}, 2, "-drain-grace (-2s) must be non-negative"},
		{[]string{"serve", "-drain-timeout", "-3s"}, 2, "-drain-timeout (-3s) must be non-negative"},
		{[]string{"serve", "-max-concurrent", "-1"}, 2, "-max-concurrent (-1) must be non-negative"},
		{[]string{"serve", "-max-queue", "-1"}, 2, "-max-queue (-1) must be non-negative"},
		{[]string{"serve", "-deadline", "-1s"}, 2, "-deadline (-1s) must be non-negative"},
		{[]string{"serve", "-qps", "-5"}, 2, "-qps (-5) must be non-negative"},
		{[]string{"serve", "-qps", "NaN"}, 2, "-qps (NaN) must be non-negative"},
		{[]string{"run", "-gate", "1.5"}, 2, "-gate (1.5) must be in [0,1]"},
		{[]string{"sample", "-gate", "-1"}, 2, "-gate (-1) must be in [0,1]"},
		{[]string{"sample", "-gate", "NaN"}, 2, "-gate (NaN) must be in [0,1]"},
		{[]string{"run", "-model", "SkipNet", "-device", "sd999"}, 1, `unknown device "sd999"`},
		// Zero keeps its documented meaning and is accepted, as do the
		// ends of -gate's range.
		{[]string{"models", "-max-queue", "0", "-size", "0", "-qps", "0", "-gate", "0"}, 0, ""},
		{[]string{"models", "-gate", "1"}, 0, ""},
	} {
		code, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("sod2 %s: exit %d, stderr %q; want exit %d with %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.msg)
		}
	}
}

// serve-bench and the seven flags only it read are gone: the command is
// a usage error, and so is each flag on any subcommand, so a script
// that still passes one fails instead of having it ignored.
func TestServeBenchRemoved(t *testing.T) {
	if code, stderr := runCLI(t, "serve-bench"); code != 2 || !strings.Contains(stderr, "usage: sod2") {
		t.Errorf("sod2 serve-bench: exit %d, stderr %q; want exit 2 with usage", code, stderr)
	}
	for _, f := range []string{"requests", "workers", "distinct", "fault-every", "parallel", "dtype", "http"} {
		code, stderr := runCLI(t, "models", "-"+f, "1")
		if want := "flag provided but not defined: -" + f; code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("sod2 models -%s 1: exit %d, stderr %q; want exit 2 with %q", f, code, stderr, want)
		}
	}
}

// Cross-request batching is gone, and with it -batch-window and
// -batch-max: each is a usage error, so a script that still passes one
// fails instead of having it ignored.
func TestBatchFlagsRemoved(t *testing.T) {
	for _, args := range [][]string{{"serve", "-batch-window", "2ms"}, {"serve", "-batch-max", "8"}} {
		code, stderr := runCLI(t, args...)
		if want := "flag provided but not defined: " + args[1]; code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("sod2 %s: exit %d, stderr %q; want exit 2 with %q", strings.Join(args, " "), code, stderr, want)
		}
	}
}
