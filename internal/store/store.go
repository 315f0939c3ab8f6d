// Package store is the durable checkpoint store under the campaign
// engine: crash-safe, checksummed, generation-numbered snapshots of an
// in-flight diagnosis.
//
// The paper's deployment runs Gist in production for weeks, refining
// sketches across many failure recurrences (§3.3) — which only works if
// the diagnosis service itself survives crashes, hangs, and disk faults
// without losing accumulated AsT state. A checkpoint that exists only
// until the first torn write is not a checkpoint; this package supplies
// the missing durability contract:
//
//   - Framing. Every checkpoint payload is wrapped in a fixed header
//     (magic, frame version, payload length) and a CRC-32C (Castagnoli)
//     over the payload, so truncation, bit rot, and stale formats are
//     all detected before a byte of JSON is decoded.
//   - Atomicity + durability. Writes go to a temp file that is fsynced
//     before the rename, and the parent directory is fsynced after it,
//     so a published generation is durable and a crash mid-write can
//     only ever leave a temp file or a torn frame — never a silently
//     half-valid published checkpoint. An fsync error fails the Save:
//     the data must be presumed lost, and the previous generation
//     remains the durable truth.
//   - Monotonic generations. Each Save publishes <name>.g<number>.ckpt
//     with a strictly increasing generation number (numbers burned by
//     failed or quarantined writes are never reused), so "newest" is
//     decidable from the filename alone and an injected fault at one
//     generation can never repeat forever.
//   - Recovery scan. Open lists every generation, validates each frame,
//     quarantines torn/corrupt/stale ones into quarantine/ (keeping
//     them for post-mortems instead of deleting evidence), and exposes
//     the surviving generations newest-first so callers can fall back
//     when the newest payload fails higher-level decoding.
//
// Fault injection: Options.Faults threads the deterministic disk-fault
// injector (faults.DiskDecision) through Save, exercising exactly the
// hazards the recovery scan exists for. A store never injects anything
// on its own; the clean path is byte-identical with the hook nil.
//
// A Store is not safe for concurrent use; give each campaign its own
// (they may share a directory as long as names differ).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/telemetry"
)

// FrameVersion is the checkpoint frame schema this build reads and
// writes. It versions the framing only; the JSON payload carries its
// own campaign-snapshot version.
const FrameVersion = 1

// frame layout (little-endian):
//
//	magic   [8]byte  "GISTCKPT"
//	version uint32   FrameVersion
//	length  uint64   payload byte count
//	crc     uint32   CRC-32C (Castagnoli) of the payload
//	payload [length]byte
const headerSize = 8 + 4 + 8 + 4

var frameMagic = [8]byte{'G', 'I', 'S', 'T', 'C', 'K', 'P', 'T'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame validation errors, wrapped with detail by DecodeFrame. A
// recovery scan quarantines on any of them; callers that need to
// distinguish (tests, error messages) use errors.Is.
var (
	ErrTorn       = errors.New("frame truncated (torn write)")
	ErrBadMagic   = errors.New("bad frame magic")
	ErrBadVersion = errors.New("unsupported frame version")
	ErrBadCRC     = errors.New("payload CRC-32C mismatch")
	// ErrFsync marks a Save whose data never became durable; the
	// previous generation remains the store's truth.
	ErrFsync = errors.New("fsync failed; checkpoint not durable")
)

// EncodeFrame wraps a payload in the checksummed checkpoint frame.
func EncodeFrame(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out, frameMagic[:])
	binary.LittleEndian.PutUint32(out[8:], FrameVersion)
	binary.LittleEndian.PutUint64(out[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[20:], crc32.Checksum(payload, castagnoli))
	copy(out[headerSize:], payload)
	return out
}

// DecodeFrame validates a frame and returns its payload. Every failure
// mode maps to one of the Err* sentinels: short data is ErrTorn, wrong
// magic ErrBadMagic, an unknown frame version ErrBadVersion, and a
// length or checksum mismatch ErrTorn / ErrBadCRC.
func DecodeFrame(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: %w: %d bytes, header needs %d", ErrTorn, len(data), headerSize)
	}
	if [8]byte(data[:8]) != frameMagic {
		return nil, fmt.Errorf("store: %w: % x", ErrBadMagic, data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != FrameVersion {
		return nil, fmt.Errorf("store: %w: frame version %d (this build reads version %d)", ErrBadVersion, v, FrameVersion)
	}
	length := binary.LittleEndian.Uint64(data[12:])
	if length != uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("store: %w: header says %d payload bytes, file has %d", ErrTorn, length, len(data)-headerSize)
	}
	payload := data[headerSize:]
	want := binary.LittleEndian.Uint32(data[20:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("store: %w: have %#08x, frame says %#08x", ErrBadCRC, got, want)
	}
	return payload, nil
}

// Options configures a Store. The zero value is the safe default:
// fsync on, keep the 3 newest generations, no fault injection, no
// telemetry.
type Options struct {
	// NoFsync skips the file and directory syncs (the -ckpt-fsync=false
	// CLI path): faster, but a crash can tear the newest generation —
	// which the recovery scan then quarantines, falling back one
	// generation. Durability becomes "at most one generation stale".
	NoFsync bool
	// Keep is how many generations Save retains (older ones are
	// pruned); 0 means 3. At least 2 are needed for corrupt-newest
	// fallback to have somewhere to fall.
	Keep int
	// Faults, when non-nil, injects disk faults into Save via
	// ForCheckpoint. Nil injects nothing.
	Faults *faults.Injector
	// Telemetry receives store.* counters (saves, quarantined,
	// fsync errors, pruned, fallbacks). Nil-safe.
	Telemetry *telemetry.Tracer
	// Backend is the storage medium; nil means the local directory
	// backend (DirBackend).
	Backend Backend
}

// Generation is one validated checkpoint generation surviving the
// recovery scan.
type Generation struct {
	Gen     uint64
	Path    string
	Payload []byte
}

// Quarantine records one file the recovery scan moved aside.
type Quarantine struct {
	From   string // original path
	To     string // where it lives now
	Reason error  // why it was quarantined
}

// Store is an open checkpoint store for one name within a directory.
type Store struct {
	dir, name string
	opts      Options
	b         Backend
	// gens is the Open-time scan result, newest first. Save does not
	// extend it: a running process restarts from its in-memory last-good
	// snapshot, and a resuming process re-runs the scan.
	gens        []Generation
	quarantined []Quarantine
	nextGen     uint64
	// sealed, once set, is the reason every later Save is refused.
	sealed atomic.Pointer[error]
}

// Open scans dir for name's checkpoint generations, quarantines every
// torn, corrupt, or stale-format one (and stray temp files from
// interrupted writes), and returns the store positioned after the
// newest generation number ever seen — valid, quarantined, or burned.
func Open(dir, name string, opts Options) (*Store, error) {
	if name == "" {
		return nil, fmt.Errorf("store: empty checkpoint name")
	}
	if opts.Keep == 0 {
		opts.Keep = 3
	}
	if opts.Keep < 2 {
		return nil, fmt.Errorf("store: keep %d generations; need at least 2 for fallback", opts.Keep)
	}
	b := opts.Backend
	if b == nil {
		b = DirBackend{}
	}
	if err := b.EnsureDir(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, name: name, opts: opts, b: b}

	names, err := b.ListFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, base := range names {
		path := filepath.Join(dir, base)
		if gen, ok := s.parseGen(base, ".ckpt.tmp"); ok {
			// A leftover temp file is an interrupted (or
			// rename-dropped) write; its generation number is burned.
			s.bumpGen(gen)
			s.quarantine(path, fmt.Errorf("store: interrupted write (stray temp file)"))
			continue
		}
		gen, ok := s.parseGen(base, ".ckpt")
		if !ok {
			continue
		}
		s.bumpGen(gen)
		data, err := b.ReadFile(path)
		if err != nil {
			s.quarantine(path, fmt.Errorf("store: %w", err))
			continue
		}
		payload, err := DecodeFrame(data)
		if err != nil {
			s.quarantine(path, err)
			continue
		}
		s.gens = append(s.gens, Generation{Gen: gen, Path: path, Payload: payload})
	}
	// Generation numbers already moved into quarantine/ by earlier
	// recoveries must stay burned too, or a fault decision could repeat.
	// Quarantined copies may carry ".tmp" and a ".<n>" collision suffix
	// after .ckpt, so cut each name there.
	if qnames, err := b.ListFiles(s.QuarantineDir()); err == nil {
		for _, qn := range qnames {
			if i := strings.LastIndex(qn, ".ckpt"); i >= 0 {
				if gen, ok := s.parseGen(qn[:i], ""); ok {
					s.bumpGen(gen)
				}
			}
		}
	}
	sort.Slice(s.gens, func(i, j int) bool { return s.gens[i].Gen > s.gens[j].Gen })
	return s, nil
}

// parseGen extracts the generation number from a base name that is
// exactly "<name>.g<num><suffix>": a published "….ckpt" is never
// confused with an interrupted write's "….ckpt.tmp".
func (s *Store) parseGen(base, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(base, s.name+".g")
	if !ok {
		return 0, false
	}
	if rest, ok = strings.CutSuffix(rest, suffix); !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	return gen, err == nil
}

func (s *Store) bumpGen(gen uint64) {
	if gen >= s.nextGen {
		s.nextGen = gen + 1
	}
}

// quarantine moves a damaged file into quarantine/, recording why. The
// file is preserved (with a numeric suffix on name collisions), never
// deleted: a corrupt checkpoint is evidence, not garbage.
func (s *Store) quarantine(path string, reason error) {
	qdir := s.QuarantineDir()
	_ = s.b.EnsureDir(qdir)
	dst := filepath.Join(qdir, filepath.Base(path))
	for n := 1; s.b.Exists(dst); n++ {
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), n))
	}
	if err := s.b.Rename(path, dst); err != nil {
		// Can't move it; removing is the lesser evil vs. re-loading a
		// known-bad checkpoint forever.
		_ = s.b.Remove(path)
		dst = ""
	}
	s.quarantined = append(s.quarantined, Quarantine{From: path, To: dst, Reason: reason})
	s.opts.Telemetry.Add("store.quarantined", 1)
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Name returns the checkpoint name the store serves.
func (s *Store) Name() string { return s.name }

// QuarantineDir is where damaged generations are preserved.
func (s *Store) QuarantineDir() string { return filepath.Join(s.dir, "quarantine") }

// Generations returns the valid generations found at Open, newest
// first, minus any the caller has since Discarded.
func (s *Store) Generations() []Generation {
	return append([]Generation(nil), s.gens...)
}

// Latest returns the newest valid generation, or nil when none
// survived the scan.
func (s *Store) Latest() *Generation {
	if len(s.gens) == 0 {
		return nil
	}
	g := s.gens[0]
	return &g
}

// Quarantined returns the recovery scan's quarantine records (plus any
// added by Discard), oldest first.
func (s *Store) Quarantined() []Quarantine {
	return append([]Quarantine(nil), s.quarantined...)
}

// Discard quarantines the newest valid generation — used when its frame
// verified but its payload failed higher-level decoding — and falls
// back to the next one, which Latest then returns.
func (s *Store) Discard(reason error) {
	if len(s.gens) == 0 {
		return
	}
	s.quarantine(s.gens[0].Path, reason)
	s.gens = s.gens[1:]
	s.opts.Telemetry.Add("store.fallbacks", 1)
}

// ExpectedPath is the published path a given generation would live at;
// used in error messages when no checkpoint exists.
func (s *Store) ExpectedPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.g%08d.ckpt", s.name, gen))
}

// Seal makes every later Save fail with reason and write nothing, so
// the newest durable generation stays the one already published. The
// owner of a campaign calls it when it stops trusting what the campaign
// computes from here on (the service, once it has written a campaign's
// runs off) while the writer may still be stepping. Safe from any
// goroutine.
func (s *Store) Seal(reason error) { s.sealed.Store(&reason) }

// Save publishes payload as the next generation: frame, temp-file
// write, fsync, rename, parent-directory fsync, prune. It returns the
// generation number written. On error (including an injected or real
// fsync failure) the store's durable state is unchanged except possibly
// a stray temp file the next recovery scan will quarantine; the
// generation number is burned either way.
func (s *Store) Save(payload []byte) (uint64, error) {
	gen := s.nextGen
	s.nextGen++
	if reason := s.sealed.Load(); reason != nil {
		return gen, fmt.Errorf("store: %s sealed: %w", s.name, *reason)
	}
	frame := EncodeFrame(payload)
	dec := s.opts.Faults.ForCheckpoint(s.name, gen)

	final := s.ExpectedPath(gen)
	tmp := final + ".tmp"
	data := frame
	if dec.Kind == faults.DiskTorn {
		data = frame[:dec.TornLen(len(frame))]
	}
	if dec.Kind == faults.DiskFsyncErr && !s.opts.NoFsync {
		// The temp file's contents are unknowable after a failed
		// fsync; write it unsynced and leave it for the recovery scan
		// to quarantine.
		_ = s.b.WriteFile(tmp, data, false)
		s.opts.Telemetry.Add("store.fsync_errors", 1)
		return gen, fmt.Errorf("store: %s: %w: injected %s fault", tmp, ErrFsync, dec.Kind)
	}
	if err := s.b.WriteFile(tmp, data, !s.opts.NoFsync); err != nil {
		if errors.Is(err, ErrFsync) {
			s.opts.Telemetry.Add("store.fsync_errors", 1)
			return gen, fmt.Errorf("store: %s: %w", tmp, err)
		}
		return gen, fmt.Errorf("store: %w", err)
	}
	if dec.Kind != faults.DiskRenameDrop {
		if err := s.b.Rename(tmp, final); err != nil {
			return gen, fmt.Errorf("store: %w", err)
		}
		if !s.opts.NoFsync {
			if err := s.b.SyncDir(s.dir); err != nil {
				return gen, fmt.Errorf("store: sync %s: %w", s.dir, err)
			}
		}
		if dec.Kind == faults.DiskFlip && len(data) > 0 {
			pos, mask := dec.FlipByte(len(data))
			s.flipByteAt(final, pos, mask)
		}
	}
	s.opts.Telemetry.Add("store.saves", 1)
	s.opts.Telemetry.Add("store.bytes_written", int64(len(data)))
	s.prune()
	return gen, nil
}

// prune removes published generations beyond the Keep newest, scanning
// the directory so generations from before this process are pruned too.
// Quarantined files are never touched.
func (s *Store) prune() {
	names, err := s.b.ListFiles(s.dir)
	if err != nil {
		return
	}
	var gens []uint64
	for _, base := range names {
		if gen, ok := s.parseGen(base, ".ckpt"); ok {
			gens = append(gens, gen)
		}
	}
	if len(gens) <= s.opts.Keep {
		return
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, gen := range gens[s.opts.Keep:] {
		if s.b.Remove(s.ExpectedPath(gen)) == nil {
			s.opts.Telemetry.Add("store.pruned", 1)
		}
	}
}

// flipByteAt XORs one byte of the file at path — the post-write
// bit-flip fault. Failures are ignored: the fault model does not
// promise corruption succeeds, only that the store survives it.
func (s *Store) flipByteAt(path string, pos int, mask byte) {
	data, err := s.b.ReadFile(path)
	if err != nil || pos < 0 || pos >= len(data) {
		return
	}
	data[pos] ^= mask
	_ = s.b.WriteFile(path, data, false)
}
