package netfunc

import "fmt"

// Matcher is an Aho-Corasick multi-pattern matcher — the scanning engine
// of the DPI network function. It finds every occurrence of every pattern
// in a payload in a single pass.
type Matcher struct {
	// trie as flat arrays: next[state][byte], fail[state], and the pattern
	// indices accepted at each state.
	next   [][256]int32
	fail   []int32
	output [][]int32
	built  bool
}

// NewMatcher compiles the patterns. Empty patterns are rejected.
func NewMatcher(patterns ...string) (*Matcher, error) {
	m := &Matcher{}
	m.addState() // root
	for i, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("netfunc: pattern %d is empty", i)
		}
		s := int32(0)
		for j := 0; j < len(p); j++ {
			b := p[j]
			if m.next[s][b] == 0 {
				m.next[s][b] = m.addState()
			}
			s = m.next[s][b]
		}
		m.output[s] = append(m.output[s], int32(i))
	}
	m.buildFailLinks()
	m.built = true
	return m, nil
}

func (m *Matcher) addState() int32 {
	m.next = append(m.next, [256]int32{})
	m.fail = append(m.fail, 0)
	m.output = append(m.output, nil)
	return int32(len(m.next) - 1)
}

// buildFailLinks runs the standard BFS construction, converting the goto
// function into a full DFA (next[s][b] is always defined).
func (m *Matcher) buildFailLinks() {
	queue := make([]int32, 0, len(m.next))
	for b := 0; b < 256; b++ {
		if s := m.next[0][b]; s != 0 {
			m.fail[s] = 0
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for b := 0; b < 256; b++ {
			t := m.next[s][b]
			if t == 0 {
				m.next[s][b] = m.next[m.fail[s]][b]
				continue
			}
			m.fail[t] = m.next[m.fail[s]][b]
			m.output[t] = append(m.output[t], m.output[m.fail[t]]...)
			queue = append(queue, t)
		}
	}
}

// Match is one pattern occurrence: pattern index and the end offset in the
// scanned payload.
type Match struct {
	Pattern int
	End     int
}

// Scan returns every pattern occurrence in payload.
func (m *Matcher) Scan(payload []byte) []Match {
	var out []Match
	s := int32(0)
	for i, b := range payload {
		s = m.next[s][b]
		for _, p := range m.output[s] {
			out = append(out, Match{Pattern: int(p), End: i + 1})
		}
	}
	return out
}

// Contains reports whether any pattern occurs in payload (early exit).
func (m *Matcher) Contains(payload []byte) bool {
	s := int32(0)
	for _, b := range payload {
		s = m.next[s][b]
		if len(m.output[s]) > 0 {
			return true
		}
	}
	return false
}

// Inspector is the DPI network function: scan the payload; packets with a
// banned pattern are dropped, others forwarded via the L3F table.
type Inspector struct {
	Matcher *Matcher
	Table   *Table
}

// Verdict is a DPI decision.
type Verdict int

const (
	// Forwarded to the next hop in NextHop.
	Forwarded Verdict = iota
	// Dropped because the payload matched a banned pattern.
	Dropped
)

// Decision is the outcome of inspecting one packet.
type Decision struct {
	Verdict Verdict
	NextHop int
	Matches []Match
}

// Inspect scans the frame (header + payload) and makes the decision.
func (in *Inspector) Inspect(frame []byte) (Decision, error) {
	matches := in.Matcher.Scan(frame)
	if len(matches) > 0 {
		return Decision{Verdict: Dropped, Matches: matches}, nil
	}
	hop, err := in.Table.Forward(frame)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Verdict: Forwarded, NextHop: hop}, nil
}
