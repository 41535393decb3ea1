package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goldenDigests is the SHA-256 of every experiment's `-run all -quick`
// section (Format output plus the separating blank line, as
// cmd/vrio-experiments prints it) at the default seeds, one "<id> <hex>"
// line per experiment in registry order.
const goldenDigests = "testdata/quick_digests.txt"

// faultSeedDigests holds the faulttolerance section's digest at other
// -fault-seed values, one "<seed> <hex>" line each. Its crash cells share
// RehomeClient with the failover experiment, so these pin the crash and
// re-home paths under fault draws the default seed does not make.
const faultSeedDigests = "testdata/fault_seed_digests.txt"

// A change that is meant to alter only speed or allocation must leave every
// experiment's modelled output byte-identical. This gate catches the case no
// shape test covers: a buffer-ownership slip or an event reordering that
// moves one figure's numbers. An intentional behaviour change updates the
// file with the digests the failure prints, and names the experiments
// whose digests moved.
func TestQuickOutputMatchesGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	want := readGoldenDigests(t, goldenDigests)
	got := RunAllParallel(true, runtime.GOMAXPROCS(0))
	if len(got) != len(want) {
		t.Errorf("%d experiments ran, %s lists %d", len(got), goldenDigests, len(want))
	}
	for _, r := range got {
		switch exp, ok := want[r.ID]; {
		case !ok:
			t.Errorf("experiment %s has no golden digest", r.ID)
		case digest(r) != exp:
			t.Errorf("experiment %s: output digest %s, golden %s\n%s", r.ID, digest(r), exp, Format(r))
		}
	}

	defer SetFaultOptions(nil, 0)
	for seed, exp := range readGoldenDigests(t, faultSeedDigests) {
		n, err := strconv.ParseUint(seed, 10, 64)
		if err != nil {
			t.Fatalf("%s: bad seed %q", faultSeedDigests, seed)
		}
		SetFaultOptions(nil, n)
		r := RunParallel([]string{"faulttolerance"}, true, runtime.GOMAXPROCS(0))[0]
		if have := digest(r); have != exp {
			t.Errorf("faulttolerance at -fault-seed %d: output digest %s, golden %s\n%s", n, have, exp, Format(r))
		}
	}
}

// digest is the SHA-256 of r's section as cmd/vrio-experiments prints it.
func digest(r Result) string {
	sum := sha256.Sum256([]byte(Format(r) + "\n"))
	return hex.EncodeToString(sum[:])
}

func readGoldenDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
