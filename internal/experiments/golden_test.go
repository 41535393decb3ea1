package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenDigests is the SHA-256 of every experiment's `-run all -quick`
// section (Format output plus the separating blank line, as
// cmd/vrio-experiments prints it) at the default seeds, one "<id> <hex>"
// line per experiment in registry order.
const goldenDigests = "testdata/quick_digests.txt"

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
	want := readGoldenDigests(t)
	got := RunAllParallel(true, runtime.GOMAXPROCS(0))
	if len(got) != len(want) {
		t.Errorf("%d experiments ran, %s lists %d", len(got), goldenDigests, len(want))
	}
	for _, r := range got {
		sum := sha256.Sum256([]byte(Format(r) + "\n"))
		have := hex.EncodeToString(sum[:])
		switch exp, ok := want[r.ID]; {
		case !ok:
			t.Errorf("experiment %s has no golden digest", r.ID)
		case have != exp:
			t.Errorf("experiment %s: output digest %s, golden %s\n%s", r.ID, have, exp, Format(r))
		}
	}
}

func readGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenDigests)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenDigests, sc.Text())
		}
		out[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
