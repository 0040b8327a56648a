// Package ckpt defines the snapshot format for deterministic
// checkpoint/restore of SMAPPIC prototypes.
//
// A snapshot file is a small binary envelope around one JSON payload:
//
//	magic "SMCK" | version uint32 LE | kind byte | payload len uint64 LE |
//	payload (JSON) | SHA-256 over everything prior
//
// The trailing digest makes truncation and corruption detectable before any
// field is interpreted; the version gate refuses payloads this build cannot
// decode. All map-shaped state is serialized as sorted arrays so equal
// simulation states produce byte-identical snapshots.
//
// Two snapshot kinds exist (see DESIGN.md "Snapshot format"):
//
//   - KindReplay records a cursor (events executed when serial, windows
//     stepped when sharded) plus the engine clock. Restore rebuilds the same
//     run and re-executes deterministically to the cursor — byte-identical
//     by construction in every mode, including under fault plans, at the
//     cost of re-simulating the prefix.
//   - KindState records the full device state at a quiescent workload
//     safepoint (event queue drained, every thread parked or exited at a
//     barrier cut). Restore rebuilds the prototype, overlays the state and
//     resumes the workload threads at their recorded times — the simulated
//     prefix is genuinely skipped, which is what campaign crash-resume and
//     warm-start forking need.
//
// The package owns only the format: the capture and restore logic lives
// with the subsystems (cache, noc, pcie, bridge, mem, fault, kernel,
// workload) and is assembled by core.Prototype.Checkpoint/RestorePrototype.
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Version is the snapshot format version this build reads and writes.
const Version = 1

// magic identifies a SMAPPIC snapshot file.
var magic = [4]byte{'S', 'M', 'C', 'K'}

// Kind selects the restore strategy a snapshot encodes.
type Kind uint8

const (
	// KindReplay is a replay cursor: restore re-executes to the cursor.
	KindReplay Kind = 1
	// KindState is a full quiescent-state capture: restore overlays state.
	KindState Kind = 2
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindReplay:
		return "replay"
	case KindState:
		return "state"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// CorruptError reports a snapshot whose envelope or digest is damaged.
type CorruptError struct{ Reason string }

func (e *CorruptError) Error() string { return "ckpt: corrupt snapshot: " + e.Reason }

// TruncatedError reports a snapshot shorter than its envelope promises.
type TruncatedError struct{ Want, Got int64 }

func (e *TruncatedError) Error() string {
	return fmt.Sprintf("ckpt: truncated snapshot: want %d bytes, got %d", e.Want, e.Got)
}

// VersionError reports a snapshot written by an incompatible format version.
type VersionError struct{ Got, Want uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: snapshot format version %d; this build reads version %d", e.Got, e.Want)
}

// MismatchError reports a snapshot that is well-formed but does not belong
// to the configuration (or program, or workload) it is being restored into.
type MismatchError struct{ Field, Got, Want string }

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: snapshot %s mismatch: snapshot has %q, restore target has %q", e.Field, e.Got, e.Want)
}

// IsSnapshotError reports whether err is (or wraps) any of this package's
// typed snapshot errors — the "this snapshot is unusable" class a caller
// handles by discarding the snapshot and starting cold.
func IsSnapshotError(err error) bool {
	var ce *CorruptError
	var te *TruncatedError
	var ve *VersionError
	var me *MismatchError
	return errors.As(err, &ce) || errors.As(err, &te) || errors.As(err, &ve) || errors.As(err, &me)
}

// Snapshot is the decoded payload of a snapshot file.
type Snapshot struct {
	Kind Kind `json:"kind"`

	// ConfigHash fingerprints the full core.Config the snapshot was taken
	// under; restore refuses a different configuration. PrefixHash, set on
	// warm-start prefix snapshots, fingerprints only the boot-relevant
	// parameter subset, letting sweep points that differ in fork-time
	// parameters (faults, credits, latencies) share one prefix.
	ConfigHash string `json:"config_hash"`
	PrefixHash string `json:"prefix_hash,omitempty"`

	// Workload tags what was running (a program hash for bare-metal runs, a
	// workload label for kernel runs); restore refuses a different tag.
	Workload string `json:"workload,omitempty"`

	// Now is the engine clock at capture (the drain time for state
	// snapshots); informational for state snapshots, verified on replay.
	Now uint64 `json:"now"`

	Replay *Replay `json:"replay,omitempty"`
	State  *State  `json:"state,omitempty"`
}

// Replay is the cursor of a KindReplay snapshot.
type Replay struct {
	// Executed is the serial engine's executed-event count at capture.
	Executed uint64 `json:"executed,omitempty"`
	// Windows is the sharded group's completed-window count at capture
	// (used instead of Executed when Parallel > 1).
	Windows uint64 `json:"windows,omitempty"`
	// Parallel records the run's Parallel setting. Restore only tells
	// serial (<= 1) from sharded (> 1): a sharded run always has one shard
	// per FPGA, whatever the value.
	Parallel int `json:"parallel,omitempty"`
	// Adaptive records the effective adaptive-lookahead cap of a sharded
	// run: window counts are only comparable between runs widening their
	// windows under the same cap, so restore rejects a different one.
	// Zero in serial cursors and in snapshots predating the field.
	Adaptive int `json:"adaptive,omitempty"`
	// WindowDigest fingerprints the sharded run's window sequence (each
	// window's start time and realized width, FNV-1a folded). Replay
	// verifies it after reaching the cursor, proving the restore re-ran the
	// identical windows rather than merely the same number of them. Never
	// zero when written (the digest starts at the FNV offset basis); zero
	// means a serial cursor or an older snapshot, and is not checked.
	WindowDigest uint64 `json:"window_digest,omitempty"`
	// Granularity records the shard unit of a sharded cursor. Current
	// builds write "fpga", the only unit they shard by; restore accepts
	// that and the empty value of snapshots predating the field, and
	// refuses anything else (such as "node" from builds that also sharded
	// per node, whose window counts and digests mean something else).
	// Empty in serial cursors.
	Granularity string `json:"granularity,omitempty"`
}

// State is the full quiescent-state section of a KindState snapshot. Every
// subsystem contributes one entry; core assembles and applies them in a
// fixed order. Transient structures (MSHRs, directory queues, bridge send
// queues, PCIe exchange pools, in-flight memory ops) are provably empty at
// a quiescent safepoint and are deliberately absent — see DESIGN.md.
type State struct {
	Mem      MemState       `json:"mem"`
	Nodes    []NodeState    `json:"nodes"`
	PCIe     PCIeState      `json:"pcie"`
	Fault    *FaultState    `json:"fault,omitempty"`
	Stats    []StatsState   `json:"stats"` // one per shard registry
	Kernel   *KernelState   `json:"kernel,omitempty"`
	Workload *WorkloadState `json:"workload,omitempty"`
}

// MemState is the backing store: every materialized page, sorted by number.
type MemState struct {
	PageBytes int       `json:"page_bytes"`
	Pages     []MemPage `json:"pages"`
}

// MemPage is one backing page. Data is raw page contents (base64 in JSON).
type MemPage struct {
	Page uint64 `json:"page"`
	Data []byte `json:"data"`
}

// NodeState is one node's device state.
type NodeState struct {
	Node   int         `json:"node"`
	DRAM   DRAMState   `json:"dram"`
	MemCtl MemCtlState `json:"memctl"`
	NoC    NoCState    `json:"noc"`
	Bridge BridgeState `json:"bridge"`
	Tiles  []TileState `json:"tiles"`
}

// DRAMState is a DRAM channel's timing state.
type DRAMState struct {
	Busy uint64 `json:"busy"`
}

// MemCtlState is a memory controller's monotonic state.
type MemCtlState struct {
	NextID uint64 `json:"next_id"`
}

// NoCState is a mesh's link/router timing state.
type NoCState struct {
	NextFree  [][]uint64 `json:"next_free"`
	LinkFlits [][]uint64 `json:"link_flits"`
	LinkBusy  [][]uint64 `json:"link_busy"`
}

// BridgeState is an inter-node bridge's credit bookkeeping, keyed by
// destination node (sorted), plus the outbound shaper's bandwidth clock
// when the link is shaped.
type BridgeState struct {
	Dsts       []BridgeDstState `json:"dsts"`
	ShaperBusy uint64           `json:"shaper_busy,omitempty"`
}

// BridgeDstState is the per-destination credit state of one bridge.
type BridgeDstState struct {
	Dst        int    `json:"dst"`
	Credits    int    `json:"credits"`
	Returned   uint64 `json:"returned"`
	Freed      uint64 `json:"freed"`
	FreedTotal uint64 `json:"freed_total"`
	CrFails    int    `json:"cr_fails"`
	Wedged     bool   `json:"wedged,omitempty"`
}

// TileState is one tile's cache state.
type TileState struct {
	Tile int           `json:"tile"`
	L1I  SetAssocState `json:"l1i"`
	L1D  SetAssocState `json:"l1d"`
	BPC  SetAssocState `json:"bpc"`
	LLC  SetAssocState `json:"llc"`
	Dir  []DirEntry    `json:"dir"`
	// NextTag is the LLC slice's monotonic transaction-tag counter.
	NextTag uint64 `json:"next_tag"`
}

// SetAssocState is a set-associative array: all ways of all sets plus the
// LRU tick.
type SetAssocState struct {
	Tick uint64       `json:"tick"`
	Sets [][]WayState `json:"sets"`
}

// WayState is one cache way.
type WayState struct {
	Line  uint64 `json:"line"`
	State uint8  `json:"state"`
	Dirty bool   `json:"dirty,omitempty"`
	LRU   uint64 `json:"lru"`
}

// DirEntry is one LLC directory entry, with sharers in sorted GID order.
type DirEntry struct {
	Line    uint64     `json:"line"`
	State   uint8      `json:"state"`
	Owner   GIDState   `json:"owner"`
	Sharers []GIDState `json:"sharers,omitempty"`
}

// GIDState is a cache.GID in serializable form.
type GIDState struct {
	Node int `json:"node"`
	Tile int `json:"tile"`
}

// PCIeState is the fabric's reliable-transport state: per-endpoint egress
// clocks and the per-(src,dst) send sequence numbers. The replay cache's
// dedup entries are reception history — at quiescence every sequence below
// NextSeq has been delivered and acknowledged, so NextSeq alone is the
// protocol state.
type PCIeState struct {
	Endpoints []PCIeEndpointState `json:"endpoints"`
	Seqs      []PCIeSeqState      `json:"seqs"`
}

// PCIeEndpointState is one endpoint's egress serialization clock.
type PCIeEndpointState struct {
	ID     int    `json:"id"`
	Egress uint64 `json:"egress"`
}

// PCIeSeqState is one ordered (src,dst) reliable-channel sequence counter.
// Src/Dst use the fabric's internal indexing (0 = host, 1+fpga = endpoint).
type PCIeSeqState struct {
	Src     int    `json:"src"`
	Dst     int    `json:"dst"`
	NextSeq uint64 `json:"next_seq"`
}

// FaultState is the injector's deterministic progress: per-site RNG streams
// and per-rule fire counts, sorted by site name.
type FaultState struct {
	Sites []FaultSiteState `json:"sites"`
}

// FaultSiteState is one site's state.
type FaultSiteState struct {
	Name       string           `json:"name"`
	RNG        uint64           `json:"rng"`
	Hung       bool             `json:"hung,omitempty"`
	StallUntil uint64           `json:"stall_until,omitempty"`
	Rules      []FaultRuleState `json:"rules"`
}

// FaultRuleState is one rule's counters on one site.
type FaultRuleState struct {
	Seen  uint64 `json:"seen"`
	Fired uint64 `json:"fired"`
}

// StatsState is a full-fidelity dump of one stats registry (unlike
// sim.Stats.Snapshot it preserves histogram bins and gauge high-water
// marks, so a restored registry renders byte-identical reports).
type StatsState struct {
	Counters []CounterState `json:"counters"`
	Gauges   []GaugeState   `json:"gauges"`
	Hists    []HistState    `json:"hists"`
}

// CounterState is one counter.
type CounterState struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeState is one gauge with its high-water mark.
type GaugeState struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	High  int64  `json:"high"`
}

// HistState is one histogram including its bins.
type HistState struct {
	Name    string   `json:"name"`
	Samples uint64   `json:"samples"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Bins    []uint64 `json:"bins"`
}

// KernelState is the mini-OS state: page tables and per-thread context.
type KernelState struct {
	NextVA  uint64            `json:"next_va"`
	Pages   []KernelPageState `json:"pages"`
	Threads []ThreadState     `json:"threads"`
	// BarrierReleased is the futex barrier's released-round watermark.
	BarrierReleased uint64 `json:"barrier_released"`
}

// KernelPageState is one installed page-table entry.
type KernelPageState struct {
	VPage uint64 `json:"vpage"`
	Phys  uint64 `json:"phys"`
	Node  int    `json:"node"`
}

// ThreadState is one kernel thread's context, captured at a barrier cut.
type ThreadState struct {
	ID         int               `json:"id"`
	Hart       int               `json:"hart"`
	RNG        uint64            `json:"rng"`
	NextMigr   uint64            `json:"next_migr"`
	Migrations int               `json:"migrations"`
	BarEpoch   uint64            `json:"bar_epoch"`
	TLB        []KernelPageState `json:"tlb"`
}

// WorkloadState is the workload's resume cursor. Resume order is the order
// threads exited the cut barrier (the canonical wake order); restoring
// wakes them in exactly this order at their recorded times, which
// reproduces the uninterrupted run's event interleaving bit for bit.
type WorkloadState struct {
	Name   string        `json:"name"`
	Phase  int           `json:"phase"` // barriers completed; resume at phase Phase+1
	Start  uint64        `json:"start"` // workload start time (cycle measurement base)
	Resume []ResumePoint `json:"resume"`
}

// ResumePoint is one thread's resume record, in barrier exit order.
type ResumePoint struct {
	Thread   int    `json:"thread"`
	ResumeAt uint64 `json:"resume_at"`
}

// Write encodes the snapshot into the envelope format.
func (s *Snapshot) Write(w io.Writer) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("ckpt: encoding snapshot: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:4], Version)
	hdr[4] = byte(s.Kind)
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	sum := sha256.Sum256(buf.Bytes())
	buf.Write(sum[:])
	_, err = w.Write(buf.Bytes())
	return err
}

// WriteFile writes the snapshot atomically (temp file + rename), so a crash
// mid-write can never leave a half-written snapshot under the final name.
func (s *Snapshot) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = s.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Read decodes and verifies a snapshot: magic, version, length, digest.
// Every failure mode returns a typed error (CorruptError, TruncatedError,
// VersionError); Read never panics on hostile input.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading snapshot: %w", err)
	}
	if len(data) < len(magic)+13+sha256.Size {
		return nil, &TruncatedError{Want: int64(len(magic) + 13 + sha256.Size), Got: int64(len(data))}
	}
	if !bytes.Equal(data[:4], magic[:]) {
		return nil, &CorruptError{Reason: "bad magic (not a SMAPPIC snapshot)"}
	}
	version := binary.LittleEndian.Uint32(data[4:8])
	if version != Version {
		return nil, &VersionError{Got: version, Want: Version}
	}
	kind := Kind(data[8])
	plen := binary.LittleEndian.Uint64(data[9:17])
	want := int64(17) + int64(plen) + sha256.Size
	if plen > uint64(len(data)) || int64(len(data)) < want {
		return nil, &TruncatedError{Want: want, Got: int64(len(data))}
	}
	if int64(len(data)) > want {
		return nil, &CorruptError{Reason: fmt.Sprintf("%d trailing bytes after digest", int64(len(data))-want)}
	}
	body := data[:17+plen]
	sum := sha256.Sum256(body)
	if !bytes.Equal(sum[:], data[17+plen:]) {
		return nil, &CorruptError{Reason: "SHA-256 digest mismatch"}
	}
	var s Snapshot
	if err := json.Unmarshal(data[17:17+plen], &s); err != nil {
		return nil, &CorruptError{Reason: "payload is not valid JSON: " + err.Error()}
	}
	if s.Kind != kind {
		return nil, &CorruptError{Reason: "payload kind disagrees with envelope kind"}
	}
	switch s.Kind {
	case KindReplay:
		if s.Replay == nil {
			return nil, &CorruptError{Reason: "replay snapshot without replay section"}
		}
	case KindState:
		if s.State == nil {
			return nil, &CorruptError{Reason: "state snapshot without state section"}
		}
	default:
		return nil, &CorruptError{Reason: "unknown snapshot kind " + s.Kind.String()}
	}
	return &s, nil
}

// ReadFile reads and verifies a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
