package core

import (
	"fmt"
	"strconv"
)

// SchedKind enumerates the scheduler organizations a SchedulerSpec can
// describe.
type SchedKind int

const (
	// SchedCentralWindow is the conventional flexible issue window
	// (NewCentralWindow).
	SchedCentralWindow SchedKind = iota
	// SchedExecSteered is the Section 5.6.1 central window with cluster
	// assignment at issue time (NewExecSteeredWindow).
	SchedExecSteered
	// SchedRandomSelect is the central window with a random selection
	// policy (NewRandomSelectWindow).
	SchedRandomSelect
	// SchedFIFOBank is the dependence-based FIFO bank and its windowed
	// variants (NewFIFOBank).
	SchedFIFOBank
)

// SchedulerSpec is a serializable description of a scheduler. Unlike an
// opaque factory closure, a spec can be fingerprinted, so configurations
// built from specs are eligible for run memoization (see
// pipeline.Config.Key and internal/runcache). pipeline's
// TestKeySeparatesBehavior classifies every field per Kind and checks
// that each live field changes Key.
type SchedulerSpec struct {
	Kind SchedKind
	// Size is the window entry count (the central-window kinds).
	Size int
	// Clusters is the cluster count fed by an exec-steered window.
	Clusters int
	// FIFO is the bank geometry (SchedFIFOBank only).
	FIFO FIFOBankConfig
}

// WindowSpec describes a single-cluster central window of the given size.
func WindowSpec(size int) SchedulerSpec {
	return SchedulerSpec{Kind: SchedCentralWindow, Size: size}
}

// ExecSteeredSpec describes a central window feeding `clusters` clusters
// with execution-driven steering.
func ExecSteeredSpec(size, clusters int) SchedulerSpec {
	return SchedulerSpec{Kind: SchedExecSteered, Size: size, Clusters: clusters}
}

// RandomSelectSpec describes a single-cluster window with random
// selection.
func RandomSelectSpec(size int) SchedulerSpec {
	return SchedulerSpec{Kind: SchedRandomSelect, Size: size}
}

// FIFOBankSpec describes a FIFO-bank scheduler.
func FIFOBankSpec(cfg FIFOBankConfig) SchedulerSpec {
	return SchedulerSpec{Kind: SchedFIFOBank, FIFO: cfg}
}

// Build constructs the described scheduler, sized for a machine with
// the given bounds. Every call returns a fresh instance with identical
// (deterministic) behavior, which is what makes spec-built
// configurations memoizable.
func (s SchedulerSpec) Build(b Bounds) Scheduler {
	switch s.Kind {
	case SchedCentralWindow:
		return NewCentralWindow(s.Size, b)
	case SchedExecSteered:
		return NewExecSteeredWindow(s.Size, s.Clusters, b)
	case SchedRandomSelect:
		return NewRandomSelectWindow(s.Size, b)
	case SchedFIFOBank:
		return NewFIFOBank(s.FIFO, b)
	default:
		panic(fmt.Sprintf("core: unknown scheduler kind %d", s.Kind))
	}
}

// Key returns a canonical fingerprint of every behavior-relevant field.
// The FIFO bank's display name is deliberately excluded: it labels
// reports but never changes timing, so renamed copies of one geometry
// share a fingerprint.
func (s SchedulerSpec) Key() string { return string(s.AppendKey(nil)) }

// AppendKey appends Key's bytes to b, so pipeline.Config.Key builds a
// whole configuration's key in one buffer.
func (s SchedulerSpec) AppendKey(b []byte) []byte {
	switch s.Kind {
	case SchedCentralWindow:
		return strconv.AppendInt(append(b, "window/"...), int64(s.Size), 10)
	case SchedExecSteered:
		b = strconv.AppendInt(append(b, "exec-steer/"...), int64(s.Size), 10)
		return strconv.AppendInt(append(b, '/'), int64(s.Clusters), 10)
	case SchedRandomSelect:
		return strconv.AppendInt(append(b, "random-select/"...), int64(s.Size), 10)
	case SchedFIFOBank:
		b = strconv.AppendInt(append(b, "fifos/"...), int64(s.FIFO.Clusters), 10)
		b = strconv.AppendInt(append(b, 'x'), int64(s.FIFO.FIFOsPerCluster), 10)
		b = strconv.AppendInt(append(b, 'x'), int64(s.FIFO.Depth), 10)
		b = strconv.AppendBool(append(b, "/any="...), s.FIFO.AnySlot)
		return strconv.AppendInt(append(b, "/pol="...), int64(s.FIFO.Policy), 10)
	default:
		panic("core: unknown scheduler kind " + strconv.Itoa(int(s.Kind)))
	}
}
