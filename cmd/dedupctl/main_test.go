package main

import (
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dedupstore/internal/qos"
)

// TestMain lets the test binary stand in for dedupctl: with DEDUPCTL_ARGS
// set it runs main on those arguments and exits, so a test can run the
// command as a subprocess and read exactly what an operator would.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("DEDUPCTL_ARGS"); ok {
		os.Args = append([]string{"dedupctl"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dedupctl runs the command on a small world and returns its output.
func dedupctl(t *testing.T, args string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "DEDUPCTL_ARGS=-seed 1 -size 4194304 "+args)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("dedupctl %s: %v\n%s", args, err, out)
	}
	return string(out)
}

// section returns the rows an action printed, split into fields.
func section(out, action string) [][]string {
	_, body, _ := strings.Cut(out, "--- "+action+" ---\n")
	body, _, _ = strings.Cut(body, "\n--- ")
	var rows [][]string
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows = append(rows, f)
		}
	}
	return rows
}

// TestTenantsAndQoSActions smoke-tests the two actions admission feeds, after
// the status line: the engine line ends with the requeues, the qos table has
// a row per class, its pacing line reports the drain and a PG-lock line
// follows for each pool, the bronze noisy tenant is throttled while the gold
// one is not, and one seed prints the same bytes twice.
func TestTenantsAndQoSActions(t *testing.T) {
	out := dedupctl(t, "status tenants qos")

	if !regexp.MustCompile(`\nengine: \d+ objects scanned, .*, \d+ requeues\n`).MatchString(out) {
		t.Errorf("status engine line does not end with the requeues:\n%s", out)
	}

	classes := map[string]bool{}
	for _, row := range section(out, "qos") {
		classes[row[0]] = true
	}
	for _, cls := range qos.ClassNames() {
		if !classes[cls] {
			t.Errorf("qos table has no %q row:\n%s", cls, out)
		}
	}

	// The load drains once, one agent per OSD of the 16, and ends with how
	// many objects an agent took off another agent's queue.
	if !regexp.MustCompile(`; drains: 1 in .*, 16 agents, \d+ shared\n`).MatchString(out) {
		t.Errorf("qos pacing line does not report the load's drain over 16 agents and its shared objects:\n%s", out)
	}
	for _, pool := range []string{"meta", "chunk"} {
		if !strings.Contains(out, "\npg lock "+pool+": ") {
			t.Errorf("qos prints no PG-lock line for pool %s:\n%s", pool, out)
		}
		// Both pools are replicated, so their writes' replica legs are timed.
		if m := regexp.MustCompile(`\npg lock ` + pool + `: .*; replica apply mean (\S+) `).FindStringSubmatch(out); m == nil || m[1] == "0s" {
			t.Errorf("qos PG-lock line for pool %s reports no replica apply time:\n%s", pool, out)
		}
	}

	throttled := map[string]string{} // slo -> throttled column
	for _, row := range section(out, "tenants") {
		if len(row) == 8 && row[0] != "tenant" {
			throttled[row[1]] = row[4]
		}
	}
	if got := throttled["gold"]; got != "0" {
		t.Errorf("gold tenant throttled %q times, want 0:\n%s", got, out)
	}
	if got := throttled["bronze"]; got == "" || got == "0" {
		t.Errorf("bronze noisy tenant throttled %q times, want > 0:\n%s", got, out)
	}

	if again := dedupctl(t, "status tenants qos"); again != out {
		t.Errorf("two runs at one seed differ:\n%s\n--- vs ---\n%s", out, again)
	}
}

// TestChaosAction: the crash-and-recover timeline ends with the version
// counters — replicas healed by a write, recovery installs refused as stale —
// and one seed prints the same bytes twice.
func TestChaosAction(t *testing.T) {
	out := dedupctl(t, "chaos")
	rows := section(out, "chaos")
	if len(rows) == 0 || !regexp.MustCompile(`^heals \d+, stale installs refused \d+$`).MatchString(strings.Join(rows[len(rows)-1], " ")) {
		t.Errorf("chaos does not end with the heals / stale installs line:\n%s", out)
	}
	if !strings.Contains(out, "monitor: recovered") {
		t.Errorf("chaos timeline shows no recovery:\n%s", out)
	}
	if again := dedupctl(t, "chaos"); again != out {
		t.Errorf("two runs at one seed differ:\n%s\n--- vs ---\n%s", out, again)
	}
}

// TestGCAndAuditActions: on a freshly loaded store the two reconcilers agree
// from both ends — GC checks one reference per binding the audit checks —
// and neither finds anything to fix.
func TestGCAndAuditActions(t *testing.T) {
	out := dedupctl(t, "gc audit")
	gc := regexp.MustCompile(`\ngc: \d+ chunks scanned, (\d+) refs checked, 0 stale, 0 chunks deleted \(0\.00 MB reclaimed\)\n`).FindStringSubmatch(out)
	audit := regexp.MustCompile(`\naudit: \d+ objects, (\d+) bindings checked, 0 intents promoted, 0 refs repaired, 0 lost chunks\n`).FindStringSubmatch(out)
	if gc == nil || audit == nil || gc[1] != audit[1] || gc[1] == "0" {
		t.Errorf("want a clean gc and audit line, with as many references checked as bindings:\n%s", out)
	}
}

// TestTieringAction: the census counts every object of the dataset once
// (-size 8 MiB of 1 MiB objects), the cooled dataset is demoted to the EC
// pool, no action fails, and the daemon is stopped by the end.
func TestTieringAction(t *testing.T) {
	out := dedupctl(t, "-size 8388608 tiering")
	objects := 0
	for _, row := range section(out, "tiering") {
		if len(row) == 4 && (row[0] == "hot" || row[0] == "warm" || row[0] == "cold") {
			n, err := strconv.Atoi(row[1])
			if err != nil {
				t.Fatalf("census row %v: %v", row, err)
			}
			objects += n
		}
	}
	if objects != 8 {
		t.Errorf("census rows sum to %d objects, want the dataset's 8:\n%s", objects, out)
	}
	if m := regexp.MustCompile(`\ndemote: .*, (\d+) chunks replicated->EC\n`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Errorf("demote line reports no chunk moved replicated->EC:\n%s", out)
	}
	if !regexp.MustCompile(`; \d+ raced skips, 0 errors\n`).MatchString(out) {
		t.Errorf("tiering reports errors:\n%s", out)
	}
	if !strings.Contains(out, "daemon running=false,") {
		t.Errorf("the daemon is still running at the end:\n%s", out)
	}
}
