package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestSimCLIBasicRun(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "L2BM", "-scale", "tiny", "-rdma", "0.3", "-tcp", "0.3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy=L2BM", "slowdown p99", "pfc pause frames", "simulated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestSimCLIWithIncast(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "DT", "-scale", "tiny", "-tcp", "0.3", "-incast", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "incast:") {
		t.Error("incast summary missing")
	}
}

func TestSimCLIErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "nope"}, &buf); err == nil {
		t.Error("bad scale should fail")
	}
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("bad flag should fail")
	}
	// The envelope l2bmd enforces on a submitted spec (HybridSpec.Validate):
	// these used to run — RDMA silently off, TCP offered at 700% of the link.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rdma", "-0.5"}, "RDMALoad = -0.5, want in [0, 1]"},
		{[]string{"-tcp", "7"}, "TCPLoad = 7, want in [0, 1]"},
		{[]string{"-tcp", "NaN"}, "TCPLoad = NaN"},
		{[]string{"-incast", "-3"}, "Incast needs positive Fanout"},
	} {
		err := run(append([]string{"-scale", "tiny"}, tc.args...), &buf)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want one containing %q", tc.args, err, tc.want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("rejected inputs still produced output:\n%s", buf.String())
	}
}

// TestSimCLIRejectsUnknownPolicy: an unregistered -policy must be a clean
// upfront error listing the registry, not a mid-run panic.
func TestSimCLIRejectsUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policy", "BShar", "-scale", "tiny"}, &buf)
	if err == nil {
		t.Fatal("unknown -policy should fail")
	}
	for _, want := range []string{`unknown policy "BShar"`, "BShare", "Occamy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("validation failure still produced output:\n%s", buf.String())
	}
}

// TestSimCLIRunsRegistryPolicy: a related-work policy resolves through
// the registry end to end.
func TestSimCLIRunsRegistryPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "FB", "-scale", "tiny", "-tcp", "0.3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "policy=FB") {
		t.Error("FB run missing its policy banner")
	}
}
