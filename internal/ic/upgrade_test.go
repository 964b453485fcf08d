package ic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// vaultCanister is a minimal snapshottable canister with a checksummed wire
// image — the property the torn-upgrade recovery path leans on: damaged
// bytes must fail reinstall instead of decoding into plausible garbage
// (mirroring statecodec's CRC trailer on the real canister).
type vaultCanister struct{ value uint64 }

func encodeVault(v uint64) []byte {
	var body [8]byte
	binary.BigEndian.PutUint64(body[:], v)
	sum := sha256.Sum256(body[:])
	return append(body[:], sum[:8]...)
}

func decodeVault(b []byte) (uint64, error) {
	if len(b) != 16 {
		return 0, fmt.Errorf("vault: image is %d bytes, want 16", len(b))
	}
	sum := sha256.Sum256(b[:8])
	for i := 0; i < 8; i++ {
		if b[8+i] != sum[i] {
			return 0, fmt.Errorf("vault: checksum mismatch")
		}
	}
	return binary.BigEndian.Uint64(b[:8]), nil
}

func (c *vaultCanister) Update(ctx *CallContext, method string, arg any) (any, error) {
	if method == "set" {
		c.value = arg.(uint64)
		return c.value, nil
	}
	return nil, fmt.Errorf("no method %s", method)
}

func (c *vaultCanister) Query(ctx *CallContext, method string, arg any) (any, error) {
	if method == "get" {
		return c.value, nil
	}
	return nil, fmt.Errorf("no method %s", method)
}

func (c *vaultCanister) Snapshot() ([]byte, error) { return encodeVault(c.value), nil }

func reinstallVault(snapshot []byte) (Canister, error) {
	v, err := decodeVault(snapshot)
	if err != nil {
		return nil, err
	}
	return &vaultCanister{value: v}, nil
}

func vaultValue(t *testing.T, s *Subnet, id CanisterID) uint64 {
	t.Helper()
	c, ok := s.Canister(id).(*vaultCanister)
	if !ok {
		t.Fatalf("canister %s is %T, want *vaultCanister", id, s.Canister(id))
	}
	return c.value
}

func newUpgradeSubnet(t *testing.T, value uint64) *Subnet {
	t.Helper()
	_, s := newTestSubnet(t, fastConfig())
	s.InstallCanister("vault", &vaultCanister{value: value})
	return s
}

// pendingImage is the vault's live snapshot: the image a crashed upgrade
// was writing to the pending slot, before any damage.
func pendingImage(t *testing.T, s *Subnet) []byte {
	t.Helper()
	return encodeVault(vaultValue(t, s, "vault"))
}

// TestUpgradeCompletesAndPromotesCheckpoint pins the happy path: a clean
// upgrade swaps the instance and promotes the pending image to the
// checkpoint — so a LATER torn upgrade falls back to the post-upgrade state,
// not an older baseline.
func TestUpgradeCompletesAndPromotesCheckpoint(t *testing.T) {
	s := newUpgradeSubnet(t, 41)
	old := s.Canister("vault")
	if err := s.UpgradeCanister("vault", reinstallVault); err != nil {
		t.Fatal(err)
	}
	if s.Canister("vault") == old {
		t.Fatal("upgrade did not replace the instance")
	}
	if got := vaultValue(t, s, "vault"); got != 41 {
		t.Fatalf("state lost across upgrade: %d", got)
	}

	// Mutate, then crash the next upgrade torn: recovery must land on the
	// checkpoint the completed upgrade promoted (41), not error out.
	s.Canister("vault").(*vaultCanister).value = 99
	src, err := s.RecoverUpgrade("vault", pendingImage(t, s)[:7], reinstallVault)
	if err != nil {
		t.Fatal(err)
	}
	if src != RecoveryCheckpoint {
		t.Fatalf("torn upgrade after a clean one recovered from %v", src)
	}
	if got := vaultValue(t, s, "vault"); got != 41 {
		t.Fatalf("recovered to %d, want the promoted checkpoint 41", got)
	}
}

// TestUpgradeCrashTornWrite cuts the pending image mid-write: the length
// check rejects it, recovery falls back to the committed checkpoint.
func TestUpgradeCrashTornWrite(t *testing.T) {
	s := newUpgradeSubnet(t, 7)
	if err := s.CommitCheckpoint("vault"); err != nil {
		t.Fatal(err)
	}
	s.Canister("vault").(*vaultCanister).value = 8 // uncheckpointed progress
	src, err := s.RecoverUpgrade("vault", pendingImage(t, s)[:5], reinstallVault)
	if err != nil {
		t.Fatal(err)
	}
	if src != RecoveryCheckpoint {
		t.Fatalf("recovered from %v, want checkpoint", src)
	}
	if got := vaultValue(t, s, "vault"); got != 7 {
		t.Fatalf("recovered to %d, want checkpoint state 7", got)
	}
}

// TestUpgradeCrashBitFlip corrupts one bit of a fully written image: the
// checksum rejects it — a complete-looking image is still untrusted without
// the completion marker.
func TestUpgradeCrashBitFlip(t *testing.T) {
	s := newUpgradeSubnet(t, 7)
	if err := s.CommitCheckpoint("vault"); err != nil {
		t.Fatal(err)
	}
	pending := pendingImage(t, s)
	pending[3] ^= 1 << 3
	src, err := s.RecoverUpgrade("vault", pending, reinstallVault)
	if err != nil {
		t.Fatal(err)
	}
	if src != RecoveryCheckpoint {
		t.Fatalf("recovered from %v, want checkpoint", src)
	}
	if got := vaultValue(t, s, "vault"); got != 7 {
		t.Fatalf("recovered to %d, want checkpoint state 7", got)
	}
}

// TestUpgradeCrashMidRestore kills the process after the image landed intact
// but before the completion marker: recovery re-verifies the pending image
// (reinstall + byte-identical re-snapshot) and replays it — no state loss,
// no checkpoint needed — and the replayed image becomes the checkpoint.
func TestUpgradeCrashMidRestore(t *testing.T) {
	s := newUpgradeSubnet(t, 23)
	src, err := s.RecoverUpgrade("vault", pendingImage(t, s), reinstallVault)
	if err != nil {
		t.Fatal(err)
	}
	if src != RecoveryPending {
		t.Fatalf("recovered from %v, want pending", src)
	}
	if got := vaultValue(t, s, "vault"); got != 23 {
		t.Fatalf("recovered to %d, want intact pending state 23", got)
	}
	s.Canister("vault").(*vaultCanister).value = 24
	if src, err := s.RecoverUpgrade("vault", nil, reinstallVault); err != nil || src != RecoveryCheckpoint {
		t.Fatalf("empty pending image: recovered from %v, %v; want the checkpoint", src, err)
	}
	if got := vaultValue(t, s, "vault"); got != 23 {
		t.Fatalf("recovered to %d, want the replayed image 23 as checkpoint", got)
	}
}

// TestUpgradeTornWithoutCheckpointFails pins the no-silent-acceptance rule:
// a torn pending image with nothing to fall back to is an explicit error,
// never an install of damaged bytes.
func TestUpgradeTornWithoutCheckpointFails(t *testing.T) {
	s := newUpgradeSubnet(t, 7)
	live := s.Canister("vault")
	pending := pendingImage(t, s)
	pending[0] ^= 1
	src, err := s.RecoverUpgrade("vault", pending, reinstallVault)
	if err == nil {
		t.Fatal("torn image with no checkpoint was silently accepted")
	}
	if src != 0 {
		t.Fatalf("failed recovery reported source %v", src)
	}
	if s.Canister("vault") != live {
		t.Fatal("failed recovery replaced the installed instance")
	}
}
