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
// replaced. A negative count, size or cap is a usage error (exit 2)
// caught before any subcommand runs; an unknown -device fails `run` as
// it fails serve-bench (exit 1).
func TestBadFlagValuesFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"serve-bench", "-model", "SkipNet", "-requests", "-1"}, 2, "-requests (-1) must be non-negative"},
		{[]string{"serve-bench", "-model", "SkipNet", "-http", "-requests", "-1"}, 2, "-requests (-1) must be non-negative"},
		{[]string{"serve-bench", "-workers", "-2"}, 2, "-workers (-2) must be non-negative"},
		{[]string{"serve-bench", "-distinct", "-3"}, 2, "-distinct (-3) must be non-negative"},
		{[]string{"serve-bench", "-parallel", "-1"}, 2, "-parallel (-1) must be non-negative"},
		{[]string{"serve-bench", "-fault-every", "-5"}, 2, "-fault-every (-5) must be non-negative"},
		{[]string{"sample", "-size", "-1"}, 2, "-size (-1) must be non-negative"},
		{[]string{"serve", "-batch-max", "-1"}, 2, "-batch-max (-1) must be non-negative"},
		{[]string{"serve", "-max-concurrent", "-1"}, 2, "-max-concurrent (-1) must be non-negative"},
		{[]string{"serve", "-max-queue", "-1"}, 2, "-max-queue (-1) must be non-negative"},
		{[]string{"serve-bench", "-deadline", "-1s"}, 2, "-deadline (-1s) must be non-negative"},
		{[]string{"run", "-model", "SkipNet", "-device", "sd999"}, 1, `unknown device "sd999"`},
		// Zero keeps its documented meaning and is accepted.
		{[]string{"models", "-requests", "0", "-size", "0"}, 0, ""},
	} {
		code, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) {
			t.Errorf("sod2 %s: exit %d, stderr %q; want exit %d with %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.msg)
		}
	}
}
