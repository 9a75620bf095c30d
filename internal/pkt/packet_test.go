package pkt

import (
	"strings"
	"testing"
	"unsafe"
)

func TestNewDataSizes(t *testing.T) {
	p := NewData(7, 1, 2, PrioLossless, ClassLossless, 5000, MTUPayload)
	if p.Size != MTUBytes {
		t.Errorf("Size = %d, want %d", p.Size, MTUBytes)
	}
	if p.End() != 6000 {
		t.Errorf("End() = %d, want 6000", p.End())
	}
	if p.Kind != KindData || p.Class != ClassLossless {
		t.Errorf("wrong kind/class: %v/%v", p.Kind, p.Class)
	}
}

func TestControlPacketsAreControlClass(t *testing.T) {
	ack := NewAck(1, 2, 3, 999, true)
	cnp := NewCNP(1, 2, 3)
	pfc := NewPFC(0, true)
	for _, p := range []*Packet{ack, cnp, pfc} {
		if p.Class != ClassControl {
			t.Errorf("%v has class %v, want control", p.Kind, p.Class)
		}
		if p.Priority != PrioControl {
			t.Errorf("%v has priority %d, want %d", p.Kind, p.Priority, PrioControl)
		}
		if p.Size != CtrlBytes {
			t.Errorf("%v has size %d, want %d", p.Kind, p.Size, CtrlBytes)
		}
	}
	if !ack.ECE {
		t.Error("ACK did not carry ECE echo")
	}
}

func TestPFCFrameFields(t *testing.T) {
	pause := NewPFC(3, true)
	resume := NewPFC(3, false)
	if !pause.PFCPause || resume.PFCPause {
		t.Error("PFC pause flags wrong")
	}
	if pause.PFCPriority != 3 {
		t.Errorf("PFCPriority = %d, want 3", pause.PFCPriority)
	}
}

func TestStringForms(t *testing.T) {
	tests := []struct {
		p    *Packet
		want string
	}{
		{NewData(1, 0, 1, PrioLossy, ClassLossy, 0, 100), "data{"},
		{NewAck(1, 0, 1, 5, false), "ack{"},
		{NewCNP(1, 0, 1), "cnp{"},
		{NewPFC(0, true), "pfc{pause"},
		{NewPFC(0, false), "pfc{resume"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); !strings.HasPrefix(got, tt.want) {
			t.Errorf("String() = %q, want prefix %q", got, tt.want)
		}
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if KindData.String() != "data" || KindPFC.String() != "pfc" {
		t.Error("Kind.String wrong")
	}
	if ClassLossless.String() != "lossless" || ClassLossy.String() != "lossy" || ClassControl.String() != "control" {
		t.Error("Class.String wrong")
	}
	if !strings.Contains(Kind(99).String(), "99") || !strings.Contains(Class(99).String(), "99") {
		t.Error("unknown enum String should include the raw value")
	}
}

func TestPriorityAssignmentsDistinct(t *testing.T) {
	if PrioLossless == PrioLossy || PrioLossy == PrioControl || PrioLossless == PrioControl {
		t.Error("default priorities must be distinct")
	}
	for _, p := range []int{PrioLossless, PrioLossy, PrioControl} {
		if p < 0 || p >= NumPriorities {
			t.Errorf("priority %d out of range", p)
		}
	}
}

// TestPacketFootprint: every frame in flight is one of these, so the struct
// must stay inside the 128-byte size class (two cache lines).
func TestPacketFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 128 {
		t.Errorf("Packet is %d bytes, want <= 128", size)
	}
}
