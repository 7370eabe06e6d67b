package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
)

func TestParseBackends(t *testing.T) {
	devs, err := parseBackends("london, ibmq16", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 2 || devs[0].Name == devs[1].Name {
		t.Fatalf("unexpected devices: %v", devs)
	}
	if devs[0].NumQubits() != 5 || devs[1].NumQubits() <= devs[0].NumQubits() {
		t.Fatalf("unexpected sizes: %d, %d", devs[0].NumQubits(), devs[1].NumQubits())
	}
	if _, err := parseBackends("nosuchchip", 0); err == nil {
		t.Fatal("expected error for unknown chip")
	}
	if _, err := parseBackends(" , ", 0); err == nil {
		t.Fatal("expected error for empty backend list")
	}
}

// TestParseBackendsUnknownChipListsValidNames: the startup error must
// tell the operator what chips exist, not fail bare.
func TestParseBackendsUnknownChipListsValidNames(t *testing.T) {
	_, err := parseBackends("nosuchchip", 0)
	if err == nil {
		t.Fatal("expected error for unknown chip")
	}
	msg := err.Error()
	for _, name := range arch.StandardDevices() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list valid chip %q", msg, name)
		}
	}
}

// TestParseBackendsReplication covers the name*N fan-out syntax.
func TestParseBackendsReplication(t *testing.T) {
	devs, err := parseBackends("london*3", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 3 {
		t.Fatalf("london*3 produced %d devices", len(devs))
	}
	names := map[string]bool{}
	for i, d := range devs {
		want := fmt.Sprintf("london-%d", i+1)
		if d.Name != want {
			t.Fatalf("device %d named %q, want %q", i, d.Name, want)
		}
		if names[d.Name] {
			t.Fatalf("duplicate replicated name %q", d.Name)
		}
		names[d.Name] = true
		if d.NumQubits() != 5 {
			t.Fatalf("replica %d has %d qubits", i, d.NumQubits())
		}
	}
	// Mixed spec: replicas plus a singleton keep their plain name.
	devs, err = parseBackends("london*2,tokyo", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(devs) != 3 || devs[2].Name != "tokyo" {
		t.Fatalf("mixed spec: %v", devs)
	}
	for _, bad := range []string{"london*0", "london*-1", "london*x", "london*"} {
		if _, err := parseBackends(bad, 0); err == nil {
			t.Fatalf("%q should be rejected", bad)
		}
	}
}

// TestRunServeRejectsPositionalArgs: flag parsing stops at the first
// non-flag, so a stray word must fail the command instead of silently
// starting a daemon. The timeout turns a daemon that serves anyway
// into a failure, not a hang.
func TestRunServeRejectsPositionalArgs(t *testing.T) {
	errc := make(chan error, 1)
	go func() {
		errc <- runServe([]string{"-addr", "127.0.0.1:0", "-backends", "london", "stray"})
	}()
	select {
	case err := <-errc:
		if err == nil || err.Error() != `unexpected argument "stray"` {
			t.Fatalf("runServe = %v, want unexpected argument \"stray\"", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("runServe served despite a positional argument")
	}
}
