package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rmac/internal/experiment"
)

// provenance says which host, toolchain and code produced a result.
type provenance struct {
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"` // VCS revision, "+dirty" if modified; "unversioned" outside a repository
	Seeds      []int64 `json:"seeds"`
	Seconds    int     `json:"seconds"`
	Start      string  `json:"start"`
}

// provenancePrefix starts the line on which an invocation prints its
// provenance, before any metric.
const provenancePrefix = "# provenance "

func stamp(seeds []int64, seconds int) provenance {
	host, _ := os.Hostname() // an unknown host name leaves the field empty
	return provenance{
		Host:       host,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     experiment.CodeVersion(),
		Seeds:      seeds,
		Seconds:    seconds,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
}

// runRecord is one invocation's verdict inside a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// resultFile is what sweep writes and compare reads.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runRecord `json:"runs"`
}

// side is one build of the benchmark a sweep runs, with its result file.
type side struct {
	exe, out string
	rf       resultFile
}

// sweep runs -runs untraced invocations and -traced traced ones of every
// workload, seeds seed, seed+1, ..., each invocation in its own child
// process, one after another, cycling through the workloads so slow drift
// on the host spreads over all of them. With -vs, every invocation is
// paired with the same invocation of another build (of another commit),
// run right before or after it, alternating which side goes first: the
// host drifts by more than a bound within minutes, and only pairs run
// back to back see the same host.
func sweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "untraced invocations per workload")
	traced := fs.Int("traced", 1, "traced invocations per workload")
	seed := fs.Int64("seed", 1, "first seed; invocation i uses seed+i")
	seconds := fs.Int("seconds", 25, "measurement window of each invocation")
	out := fs.String("out", "", "result file to write")
	vs := fs.String("vs", "", "benchmark binary of another build to pair every invocation with")
	vsOut := fs.String("vs-out", "", "result file to write for the -vs build")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var seeds []int64
	for i := 0; i < max(*runs, *traced); i++ {
		seeds = append(seeds, *seed+int64(i))
	}
	sides := []*side{{exe: exe, out: *out}}
	if *vs != "" {
		sides = append(sides, &side{exe: *vs, out: *vsOut})
	}
	start := time.Now().UTC().Format(time.RFC3339)
	failed := 0
	for i, s := range seeds {
		for _, tr := range []int{0, 1} {
			if (tr == 0 && i >= *runs) || (tr == 1 && i >= *traced) {
				continue
			}
			for _, w := range workloads {
				for k := range sides {
					sd := sides[(i+k)%len(sides)]
					rec, prov, err := child(sd.exe, w.name, s, *seconds, tr)
					if err != nil {
						fmt.Fprintf(os.Stderr, "%s: %s seed %d trace %d: %v\n", sd.exe, w.name, s, tr, err)
						failed++
					}
					if sd.rf.Provenance.Start == "" && prov != nil {
						sd.rf.Provenance = *prov
						sd.rf.Provenance.Seeds, sd.rf.Provenance.Start = seeds, start
					}
					sd.rf.Runs = append(sd.rf.Runs, rec)
				}
			}
		}
	}
	for _, sd := range sides {
		fmt.Printf("%s (commit %s)\n", sd.exe, sd.rf.Provenance.Commit)
		summarize(os.Stdout, &sd.rf)
		if sd.out == "" {
			continue
		}
		data, err := json.MarshalIndent(&sd.rf, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(sd.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d invocations failed", failed)
	}
	return nil
}

// child runs one invocation and parses the provenance on its first line
// and the verdict on its last.
func child(exe, name string, seed int64, seconds, trace int) (runRecord, *provenance, error) {
	rec := runRecord{Workload: name, Seed: seed, Trace: trace}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var prov *provenance
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
		if p, ok := strings.CutPrefix(last, provenancePrefix); ok && prov == nil {
			prov = new(provenance)
			if json.Unmarshal([]byte(p), prov) != nil {
				prov = nil
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, prov, fmt.Errorf("no verdict (%v): %w", runErr, err)
	}
	if runErr != nil || !rec.Result.Correct {
		return rec, prov, fmt.Errorf("%d of %d checks failed (%v)", rec.Result.Failed, rec.Result.Attempted, runErr)
	}
	return rec, prov, nil
}
