package main

import (
	"bytes"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// TestRowsIdenticalAtAnyWorkers runs the command at -workers 1, 2 and 4,
// three times each, and requires the same stdout every time: jobs run
// side by side, but rows come out in job order and every exploration is
// deterministic. The lamport-fast reference job is cut by its state
// budget, so its run count depends on visit order — the number a
// visit-order-dependent explorer changes from run to run.
func TestRowsIdenticalAtAnyWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		must string // a row fragment the output has to contain
	}{
		{
			name: "n3-lamport-fast-reference-truncated",
			args: []string{"-n", "3", "-only", "lamport-fast", "-dpor=false", "-states", "20000"},
			must: "no violation found (truncated)",
		},
		{name: "n2-portfolio", must: "proved (DPOR+sym)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, k := range []int{1, 2, 4} {
				for rep := 1; rep <= 3; rep++ {
					var out, errOut bytes.Buffer
					args := append(slices.Clip(tc.args), "-workers", strconv.Itoa(k))
					if code := run(args, &out, &errOut); code != 0 {
						t.Fatalf("-workers %d run %d: exit %d\nstderr:\n%s", k, rep, code, errOut.String())
					}
					if want == nil {
						want = out.Bytes()
						if !bytes.Contains(want, []byte(tc.must)) {
							t.Fatalf("output lacks %q:\n%s", tc.must, want)
						}
						continue
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Fatalf("-workers %d run %d differs from -workers 1:\n%s\nwant:\n%s", k, rep, out.Bytes(), want)
					}
				}
			}
		})
	}
}

// TestOnlyMatchingNothingPrintsNothing: an -only that selects no job is
// an empty check, not an error, at any -workers.
func TestOnlyMatchingNothingPrintsNothing(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		var out, errOut bytes.Buffer
		code := run([]string{"-only", "no-such-job", "-workers", strconv.Itoa(k)}, &out, &errOut)
		if code != 0 || out.Len() != 0 || errOut.Len() != 0 {
			t.Fatalf("-workers %d: exit %d, stdout %q, stderr %q; want exit 0 and no output", k, code, out.String(), errOut.String())
		}
	}
}

// TestPORDiffSummarySkipsTruncatedRows: the summary's max_dpor_ratio
// must not divide by a reference count the state budget cut. At n = 3
// the reference stops lamport-fast at 20000 states, where DPOR reports
// 77, a ratio of 259.74 that is no reduction; the maximum must come
// from the untruncated lamport-fast+taf-tree row instead.
func TestPORDiffSummarySkipsTruncatedRows(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-pordiff", "-n", "3", "-only", "lamport-fast", "-states", "20000", "-workers", "1"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{
		`(?m)^PORDIFF name=mutex/lamport-fast .* ref_states=20000 .* dpor_ratio=259\.74 .* truncated=true/false$`,
		`(?m)^PORDIFF name=mixed/lamport-fast\+taf-tree .* dpor_ratio=75\.06 .* truncated=false/false$`,
		`(?m)^PORDIFF-SUMMARY jobs=2 failed=0 max_dpor_ratio=75\.06$`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("output does not match %s:\n%s", want, out.String())
		}
	}
}
