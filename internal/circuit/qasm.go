package circuit

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/fp"
)

// ParseQASM reads an OpenQASM 2.0 program and returns it as a Circuit.
// Supported: one quantum register, the standard qelib1 gates, measure,
// barrier, and user gate definitions (`gate name(params) q,... { ... }`)
// which are expanded inline at application sites. Classical registers
// are parsed but only the measured qubit index is retained.
func ParseQASM(name string, r io.Reader) (*Circuit, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("qasm %s: %w", name, err)
	}
	// Strip line comments, keep newlines irrelevant (statements are
	// ';'-terminated; gate bodies are brace-delimited).
	var clean strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		clean.WriteString(line)
		clean.WriteByte(' ')
	}
	stmts, err := splitStatements(clean.String())
	if err != nil {
		return nil, fmt.Errorf("qasm %s: %w", name, err)
	}
	p := &qasmParser{name: name, defs: map[string]*gateDef{}}
	for _, stmt := range stmts {
		if err := p.statement(stmt); err != nil {
			return nil, fmt.Errorf("qasm %s: %w", name, err)
		}
	}
	if p.c == nil {
		return nil, fmt.Errorf("qasm %s: no qreg declaration", name)
	}
	return p.c, nil
}

// splitStatements breaks QASM source into statements: ';' terminates a
// statement at brace depth 0; a brace-delimited block (a gate body)
// belongs to its statement and the closing '}' also terminates it.
// Malformed input is a hard error carrying a byte offset: an unbalanced
// '}' points at the brace, an unclosed '{' points at the outermost
// opener left dangling at end of input, and a trailing statement with
// no terminating ';' points at its first byte. Offsets index the
// comment-stripped source ParseQASM feeds in (comments removed,
// newlines flattened to spaces), which matches the original byte
// positions for comment-free sources.
func splitStatements(s string) ([]string, error) {
	var out []string
	depth, start := 0, 0
	lastOpen := -1 // offset of the outermost still-open '{'
	flush := func(end int) {
		if stmt := strings.TrimSpace(s[start:end]); stmt != "" {
			out = append(out, stmt)
		}
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			if depth == 0 {
				lastOpen = i
			}
			depth++
		case '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced '}' at offset %d", i)
			}
			if depth == 0 {
				flush(i + 1)
				start = i + 1
			}
		case ';':
			if depth == 0 {
				flush(i)
				start = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unclosed '{' opened at offset %d reaches end of input", lastOpen)
	}
	if stmt := strings.TrimSpace(s[start:]); stmt != "" {
		// Point at the statement text, not the flush boundary: the gap
		// between them is whitespace the message would mislocate.
		off := start + strings.Index(s[start:], stmt[:1])
		return nil, fmt.Errorf("trailing unterminated statement %q at offset %d (missing ';')", stmt, off)
	}
	return out, nil
}

// ParseQASMString is ParseQASM over a string.
func ParseQASMString(name, src string) (*Circuit, error) {
	return ParseQASM(name, strings.NewReader(src))
}

// gateDef is a user `gate` declaration awaiting inline expansion.
type gateDef struct {
	params []string // formal parameter names
	qargs  []string // formal qubit argument names
	body   []string // ';'-separated body statements
}

// Parser robustness limits: untrusted QASM (user uploads, fuzzing) must
// fail with an error, never panic, recurse unboundedly, or allocate
// pathologically.
const (
	// maxQASMQubits caps a qreg declaration; it is far above every chip
	// and benchmark in this repository.
	maxQASMQubits = 4096
	// maxGateExpansionDepth caps nested user-gate expansion, rejecting
	// (mutually) recursive gate definitions such as `gate g a { g a; }`.
	maxGateExpansionDepth = 64
)

type qasmParser struct {
	name  string
	c     *Circuit
	qreg  string
	defs  map[string]*gateDef
	depth int // current user-gate expansion depth
}

func (p *qasmParser) statement(stmt string) error {
	fields := strings.Fields(stmt)
	if len(fields) == 0 {
		return nil
	}
	switch {
	case fields[0] == "OPENQASM", strings.HasPrefix(stmt, "include"):
		return nil
	case fields[0] == "qreg":
		rname, size, err := parseRegDecl(stmt[len("qreg"):])
		if err != nil {
			return err
		}
		if p.c != nil {
			return fmt.Errorf("multiple qreg declarations")
		}
		p.c = New(p.name, size)
		p.qreg = rname
		return nil
	case fields[0] == "creg":
		return nil
	case fields[0] == "gate":
		return p.defineGate(stmt)
	}
	if p.c == nil {
		return fmt.Errorf("gate before qreg declaration: %q", stmt)
	}
	return p.apply(stmt, nil, nil)
}

// defineGate parses `gate name(p1,p2) a,b { stmts }`.
func (p *qasmParser) defineGate(stmt string) error {
	open := strings.Index(stmt, "{")
	closeB := strings.LastIndex(stmt, "}")
	if open < 0 || closeB < open {
		return fmt.Errorf("malformed gate definition %q", stmt)
	}
	head := strings.TrimSpace(stmt[len("gate"):open])
	bodySrc := stmt[open+1 : closeB]
	def := &gateDef{}
	// Optional parenthesized parameter list.
	gname := head
	if pi := strings.Index(head, "("); pi >= 0 {
		pe := strings.Index(head, ")")
		if pe < pi {
			return fmt.Errorf("malformed gate parameters in %q", head)
		}
		for _, prm := range strings.Split(head[pi+1:pe], ",") {
			if prm = strings.TrimSpace(prm); prm != "" {
				def.params = append(def.params, prm)
			}
		}
		gname = head[:pi] + " " + head[pe+1:]
		gname = strings.TrimSpace(strings.Replace(gname, head[pi:pe+1], "", 1))
	}
	hf := strings.Fields(gname)
	if len(hf) < 2 {
		return fmt.Errorf("gate definition needs a name and qubit args: %q", stmt)
	}
	name := strings.ToLower(hf[0])
	for _, qa := range strings.Split(strings.Join(hf[1:], ""), ",") {
		if qa = strings.TrimSpace(qa); qa != "" {
			def.qargs = append(def.qargs, qa)
		}
	}
	for _, bs := range strings.Split(bodySrc, ";") {
		if bs = strings.TrimSpace(bs); bs != "" {
			def.body = append(def.body, bs)
		}
	}
	p.defs[name] = def
	return nil
}

// apply executes one gate-application statement. Inside a gate-body
// expansion, qbind maps formal qubit names to physical indices and
// pbind formal parameter names to values; at top level both are nil.
func (p *qasmParser) apply(stmt string, qbind map[string]int, pbind map[string]float64) error {
	gname, params, rest, err := splitGateHeadVars(stmt, pbind)
	if err != nil {
		return err
	}
	switch gname {
	case GateBarrier:
		if qbind == nil {
			p.c.Add(Gate{Name: GateBarrier})
		}
		return nil
	case GateMeasure:
		parts := strings.SplitN(rest, "->", 2)
		q, err := p.operand(parts[0], qbind)
		if err != nil {
			return err
		}
		p.c.Measure(q)
		return nil
	}
	var qubits []int
	if strings.TrimSpace(rest) != "" {
		for _, op := range strings.Split(rest, ",") {
			q, err := p.operand(op, qbind)
			if err != nil {
				return err
			}
			qubits = append(qubits, q)
		}
	}
	switch gname {
	case GateH, GateX, GateY, GateZ, GateS, GateSdg, GateT, GateTdg,
		GateRX, GateRY, GateRZ, GateU1, GateU2, GateU3, GateCX, GateCZ, GateSWAP:
		g := Gate{Name: gname, Qubits: qubits, Params: params}
		if err := g.validateArity(); err != nil {
			return err
		}
		p.c.Add(g)
		return nil
	case "id", "u0":
		return nil
	case "ccx":
		if len(qubits) != 3 {
			return fmt.Errorf("ccx takes 3 qubits")
		}
		if qubits[0] == qubits[1] || qubits[0] == qubits[2] || qubits[1] == qubits[2] {
			return fmt.Errorf("ccx qubits must be distinct, got %v", qubits)
		}
		AppendToffoli(p.c, qubits[0], qubits[1], qubits[2])
		return nil
	}
	// User-defined gate: expand the body with fresh bindings.
	def, ok := p.defs[gname]
	if !ok {
		return fmt.Errorf("unsupported gate %q", gname)
	}
	if len(qubits) != len(def.qargs) {
		return fmt.Errorf("gate %q takes %d qubits, got %d", gname, len(def.qargs), len(qubits))
	}
	if len(params) != len(def.params) {
		return fmt.Errorf("gate %q takes %d parameters, got %d", gname, len(def.params), len(params))
	}
	qb := map[string]int{}
	for i, qa := range def.qargs {
		qb[qa] = qubits[i]
	}
	pb := map[string]float64{}
	for i, pn := range def.params {
		pb[pn] = params[i]
	}
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxGateExpansionDepth {
		return fmt.Errorf("gate %q: expansion exceeds depth %d (recursive definition?)", gname, maxGateExpansionDepth)
	}
	for _, bs := range def.body {
		if err := p.apply(bs, qb, pb); err != nil {
			return fmt.Errorf("in gate %q: %w", gname, err)
		}
	}
	return nil
}

// operand resolves `q[3]` against the quantum register or a bare formal
// name against the gate-body binding, rejecting indices outside the
// declared register (Circuit.Add would panic on them).
func (p *qasmParser) operand(op string, qbind map[string]int) (int, error) {
	op = strings.TrimSpace(op)
	if qbind != nil {
		if q, ok := qbind[op]; ok {
			return q, nil
		}
	}
	q, err := parseOperand(op, p.qreg)
	if err != nil {
		return 0, err
	}
	if q >= p.c.NumQubits {
		return 0, fmt.Errorf("operand %q exceeds register size %d", op, p.c.NumQubits)
	}
	return q, nil
}

func parseRegDecl(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "[")
	closeB := strings.Index(s, "]")
	if open < 0 || closeB < open {
		return "", 0, fmt.Errorf("malformed register declaration %q", s)
	}
	size, err := strconv.Atoi(strings.TrimSpace(s[open+1 : closeB]))
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	if size > maxQASMQubits {
		return "", 0, fmt.Errorf("register size %d exceeds limit %d", size, maxQASMQubits)
	}
	return strings.TrimSpace(s[:open]), size, nil
}

// splitGateHeadVars parses "name[(exprs)] operands" with parameter
// expressions evaluated under the given variable bindings.
func splitGateHeadVars(stmt string, vars map[string]float64) (name string, params []float64, rest string, err error) {
	i := 0
	for i < len(stmt) && stmt[i] != ' ' && stmt[i] != '(' && stmt[i] != '\t' {
		i++
	}
	name = strings.ToLower(stmt[:i])
	rest = strings.TrimSpace(stmt[i:])
	if strings.HasPrefix(rest, "(") {
		depth, j := 0, 0
		for ; j < len(rest); j++ {
			switch rest[j] {
			case '(':
				depth++
			case ')':
				depth--
			}
			if depth == 0 {
				break
			}
		}
		if depth != 0 {
			return "", nil, "", fmt.Errorf("unbalanced parens in %q", stmt)
		}
		for _, p := range splitTopLevel(rest[1:j], ',') {
			v, err := evalExprVars(p, vars)
			if err != nil {
				return "", nil, "", err
			}
			params = append(params, v)
		}
		rest = strings.TrimSpace(rest[j+1:])
	}
	return name, params, rest, nil
}

// splitTopLevel splits s on sep, ignoring separators inside parentheses.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

func parseOperand(op, qreg string) (int, error) {
	op = strings.TrimSpace(op)
	open := strings.Index(op, "[")
	closeB := strings.Index(op, "]")
	if open < 0 || closeB < open {
		return 0, fmt.Errorf("malformed operand %q", op)
	}
	reg := strings.TrimSpace(op[:open])
	if qreg != "" && reg != qreg && !strings.HasPrefix(reg, "c") {
		return 0, fmt.Errorf("unknown register %q", reg)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(op[open+1 : closeB]))
	if err != nil || idx < 0 {
		return 0, fmt.Errorf("bad index in %q", op)
	}
	return idx, nil
}

// evalExprVars evaluates QASM parameter arithmetic: numbers, pi,
// + - * /, unary minus, parentheses, and the named variable bindings
// (gate-body formal parameters).
func evalExprVars(s string, vars map[string]float64) (float64, error) {
	p := &exprParser{s: strings.TrimSpace(s), vars: vars}
	v, err := p.parseSum()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return 0, fmt.Errorf("trailing garbage in expression %q", s)
	}
	// Non-finite parameters (e.g. 1e308*10) would poison simulation and
	// break the QASM round-trip ("%g" renders +Inf, which won't reparse).
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("expression %q is not finite", s)
	}
	return v, nil
}

type exprParser struct {
	s     string
	i     int
	vars  map[string]float64
	depth int // recursion depth across parens and unary signs
}

// maxExprDepth bounds the expression parser's recursion so adversarial
// inputs like "((((…))))" or "-----…1" fail fast instead of growing the
// stack without limit.
const maxExprDepth = 256

func (p *exprParser) enter() error {
	p.depth++
	if p.depth > maxExprDepth {
		return fmt.Errorf("expression %q nests deeper than %d", p.s, maxExprDepth)
	}
	return nil
}

func (p *exprParser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *exprParser) parseSum() (float64, error) {
	v, err := p.parseProduct()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.i >= len(p.s) || (p.s[p.i] != '+' && p.s[p.i] != '-') {
			return v, nil
		}
		op := p.s[p.i]
		p.i++
		rhs, err := p.parseProduct()
		if err != nil {
			return 0, err
		}
		if op == '+' {
			v += rhs
		} else {
			v -= rhs
		}
	}
}

func (p *exprParser) parseProduct() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.i >= len(p.s) || (p.s[p.i] != '*' && p.s[p.i] != '/') {
			return v, nil
		}
		op := p.s[p.i]
		p.i++
		rhs, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if op == '*' {
			v *= rhs
		} else {
			if fp.Zero(rhs) {
				return 0, fmt.Errorf("division by zero in %q", p.s)
			}
			v /= rhs
		}
	}
}

func (p *exprParser) parseUnary() (float64, error) {
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == '-' {
		if err := p.enter(); err != nil {
			return 0, err
		}
		defer func() { p.depth-- }()
		p.i++
		v, err := p.parseUnary()
		return -v, err
	}
	if p.i < len(p.s) && p.s[p.i] == '+' {
		if err := p.enter(); err != nil {
			return 0, err
		}
		defer func() { p.depth-- }()
		p.i++
		return p.parseUnary()
	}
	return p.parseAtom()
}

func (p *exprParser) parseAtom() (float64, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return 0, fmt.Errorf("unexpected end of expression %q", p.s)
	}
	if p.s[p.i] == '(' {
		if err := p.enter(); err != nil {
			return 0, err
		}
		defer func() { p.depth-- }()
		p.i++
		v, err := p.parseSum()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.i >= len(p.s) || p.s[p.i] != ')' {
			return 0, fmt.Errorf("missing ) in %q", p.s)
		}
		p.i++
		return v, nil
	}
	if c := p.s[p.i]; c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		start := p.i
		for p.i < len(p.s) {
			c := p.s[p.i]
			if c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
				p.i++
				continue
			}
			break
		}
		ident := p.s[start:p.i]
		if ident == "pi" {
			return math.Pi, nil
		}
		if v, ok := p.vars[ident]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("unknown identifier %q in expression %q", ident, p.s)
	}
	start := p.i
	for p.i < len(p.s) && (p.s[p.i] == '.' || p.s[p.i] == 'e' || p.s[p.i] == 'E' ||
		(p.s[p.i] >= '0' && p.s[p.i] <= '9') ||
		((p.s[p.i] == '+' || p.s[p.i] == '-') && p.i > start && (p.s[p.i-1] == 'e' || p.s[p.i-1] == 'E'))) {
		p.i++
	}
	if start == p.i {
		return 0, fmt.Errorf("expected number at %q", p.s[p.i:])
	}
	return strconv.ParseFloat(p.s[start:p.i], 64)
}

// WriteQASM renders the circuit as OpenQASM 2.0.
func WriteQASM(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\ncreg c[%d];\n", c.NumQubits, c.NumQubits)
	for _, g := range c.Gates {
		switch {
		case g.IsBarrier():
			fmt.Fprintln(bw, "barrier q;")
		case g.IsMeasure():
			fmt.Fprintf(bw, "measure q[%d] -> c[%d];\n", g.Qubits[0], g.Qubits[0])
		default:
			fmt.Fprintf(bw, "%s;\n", g.String())
		}
	}
	return bw.Flush()
}

// QASMString renders the circuit as an OpenQASM 2.0 string.
func QASMString(c *Circuit) string {
	var b strings.Builder
	if err := WriteQASM(&b, c); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// AppendToffoli appends the standard 15-gate decomposition of a Toffoli
// (CCX) with controls a, b and target t (Figure 3 of the paper).
func AppendToffoli(c *Circuit, a, b, t int) {
	c.H(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(t)
	c.CX(b, t)
	c.Tdg(t)
	c.CX(a, t)
	c.T(b)
	c.T(t)
	c.H(t)
	c.CX(a, b)
	c.T(a)
	c.Tdg(b)
	c.CX(a, b)
}
