package prompt

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// TaskBatch renders several independent unit prompts as one multi-task
// envelope — the execution layer's batching lever (Section 4: "one can ask
// the LLM to process a small number of ... tasks in a single prompt,
// reducing cost and latency"). Unlike CompareBatch, the envelope is
// task-agnostic: any homogeneous unit prompts can ride in it, and the
// response carries one "### Task i" section per task so the caller can
// split it back into per-task answers.
//
// Every prompt must satisfy CanEmbed (all templates in this package do),
// so the next header starts at a line boundary and the embedded prompts
// round-trip byte-for-byte.
func TaskBatch(prompts []string) string {
	b := TaskBatchHead.AppendCount(nil, len(prompts))
	for i, p := range prompts {
		b = append(TaskLine.AppendCount(b, i+1), p...)
		if !strings.HasSuffix(p, "\n") {
			b = append(b, '\n')
		}
	}
	return string(b)
}

// ReadTaskBatch is TaskBatch's inverse: an envelope's prompts, each ending
// in the newline TaskBatch ends it with. A prompt runs to the next task's
// header line, so every prompt CanEmbed accepts reads back exactly.
func ReadTaskBatch(p string) (prompts []string, ok bool) {
	var count string
	rest, ok := TaskBatchHead.Read(p, &count)
	n, okN := ReadCount(count)
	for i := 1; ok && okN && i <= n; i++ {
		if rest, ok = strings.CutPrefix(rest, TaskLine[0]+strconv.Itoa(i)+TaskLine[1]); ok {
			end := len(rest)
			if i < n {
				end = strings.Index(rest, "\n"+TaskLine[0]+strconv.Itoa(i+1)+TaskLine[1]) + 1
			}
			prompts, rest, ok = append(prompts, rest[:end]), rest[end:], end > 0
		}
	}
	return prompts, ok && okN && rest == ""
}

var (
	taskHeaderRe = regexp.MustCompile(`(?m)^### Task (\d+)[ \t]*$`)
	strayMarkRe  = regexp.MustCompile(`(?m)^### `)
)

// CanEmbed reports whether p can ride in a TaskBatch envelope losslessly:
// it must be newline-terminated (so the next header starts at a line
// boundary) and must not itself contain a line matching the section-header
// pattern — a prompt built from data that happens to contain "### Task 2"
// would make the envelope ambiguous to split, silently misassigning
// answers between neighbouring tasks.
func CanEmbed(p string) bool {
	return strings.HasSuffix(p, "\n") && !taskHeaderRe.MatchString(p)
}

// ParseTaskBatch extracts the per-task answers of a TaskBatch response as
// a map from 0-based task index to answer text (trailing newlines
// stripped). Tasks the model skipped are absent; out-of-range indices are
// dropped; on duplicate headers the first wins. An empty result is an
// ErrUnparseable, so the caller can route the whole completion through
// the retry path.
func ParseTaskBatch(response string, total int) (map[int]string, error) {
	out := make(map[int]string)
	locs := taskHeaderRe.FindAllStringSubmatchIndex(response, -1)
	for i, loc := range locs {
		idx, err := strconv.Atoi(response[loc[2]:loc[3]])
		if err != nil || idx < 1 || idx > total {
			continue
		}
		start := loc[1]
		if start < len(response) && response[start] == '\n' {
			start++
		}
		end := len(response)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		if _, dup := out[idx-1]; dup {
			continue
		}
		section := response[start:end]
		// A garbled header ("### Task skipped") is not recognised above and
		// would otherwise be swallowed into the preceding answer, together
		// with the orphaned answer under it. Cut each section at the first
		// stray marker so the preceding task stays clean; the orphaned task
		// simply goes missing and takes the retry path.
		if m := strayMarkRe.FindStringIndex(section); m != nil {
			section = section[:m[0]]
		}
		out[idx-1] = strings.TrimRight(section, "\n")
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no task sections in %q: %w", response, ErrUnparseable)
	}
	return out, nil
}
