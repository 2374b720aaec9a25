package expr

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"xprs/internal/storage"
)

// Columnar selection. A ColPred evaluates a qualification over a
// columnar batch and produces a selection vector: the ascending physical
// row indexes of the passing rows. Filtering never moves tuple data —
// downstream operators consume the batch through the selection vector.
//
// The compiled forms reproduce the interpreted evaluator's semantics
// exactly (including error messages), which the differential oracle in
// colpred_test.go pins down against Qualifies row by row.

// ColPred appends the passing physical row indexes of b, drawn from the
// input selection sel (nil = all b.N rows), to out and returns the
// extended slice. out must not alias sel.
type ColPred func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error)

// CompileColPred compiles a boolean expression to a columnar predicate.
// A nil expression compiles to nil (pass everything). The comparison
// shapes the workloads use — column against int4 constant, column
// against column, and AND/OR/NOT of those — become tight loops over the
// column vectors; anything else falls back to row-at-a-time interpreted
// evaluation over materialized values.
func CompileColPred(e Expr) ColPred {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case Cmp:
		if p := compileColCmp(x); p != nil {
			return p
		}
	case Logic:
		switch x.Op {
		case And:
			if len(x.Kids) > 0 {
				kids := make([]ColPred, len(x.Kids))
				for i, k := range x.Kids {
					kids[i] = CompileColPred(k)
				}
				return andColPred(kids)
			}
		case Or:
			if len(x.Kids) > 0 {
				kids := make([]ColPred, len(x.Kids))
				for i, k := range x.Kids {
					kids[i] = CompileColPred(k)
				}
				return orColPred(kids)
			}
		case Not:
			if len(x.Kids) == 1 {
				return notColPred(CompileColPred(x.Kids[0]))
			}
		}
	}
	return interpColPred(e)
}

// CompileColPredChain compiles e's top-level AND factors individually:
// applying the returned predicates in order, each narrowing the previous
// selection, is equivalent to the conjunction. Callers that own their
// selection scratch (the executor's filter stage) use this to ping-pong
// between two reusable buffers instead of paying andColPred's internal
// scratch. A nil expression returns nil.
func CompileColPredChain(e Expr) []ColPred {
	if e == nil {
		return nil
	}
	if x, ok := e.(Logic); ok && x.Op == And && len(x.Kids) > 0 {
		var out []ColPred
		for _, k := range x.Kids {
			out = append(out, CompileColPredChain(k)...)
		}
		return out
	}
	return []ColPred{CompileColPred(e)}
}

// andColPred chains the kids: each narrows the previous selection,
// ping-ponging between two internal buffers so only the final result
// lands in out.
func andColPred(kids []ColPred) ColPred {
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		var bufA, bufB []int32
		cur := sel
		for i, k := range kids {
			if i == len(kids)-1 {
				return k(b, cur, out)
			}
			// cur aliases the buffer written two rounds ago (or the
			// caller's sel); write this round into the other buffer.
			dst := bufA[:0]
			res, err := k(b, cur, dst)
			if err != nil {
				return out, err
			}
			bufA = res
			if len(res) == 0 {
				return out, nil
			}
			cur = res
			bufA, bufB = bufB, bufA
		}
		return out, nil
	}
}

// orColPred reproduces the row evaluator's left-to-right short-circuit:
// each kid evaluates only the rows every earlier kid rejected, so a row
// that errors in a later kid after an earlier kid matched it does not
// error here either.
func orColPred(kids []ColPred) ColPred {
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		var remA, remB, res []int32
		cur := sel
		base := len(out)
		for i, k := range kids {
			var err error
			res, err = k(b, cur, res[:0])
			if err != nil {
				return out, err
			}
			out = append(out, res...)
			if i == len(kids)-1 {
				break
			}
			// next = cur \ res (both ascending), into the buffer cur does
			// not alias.
			dst := remA[:0]
			if i%2 == 1 {
				dst = remB[:0]
			}
			j := 0
			n := b.N
			if cur != nil {
				n = len(cur)
			}
			for pos := 0; pos < n; pos++ {
				row := int32(pos)
				if cur != nil {
					row = cur[pos]
				}
				if j < len(res) && res[j] == row {
					j++
					continue
				}
				dst = append(dst, row)
			}
			if i%2 == 0 {
				remA = dst
			} else {
				remB = dst
			}
			if len(dst) == 0 {
				break
			}
			cur = dst
		}
		sortSel(out[base:])
		return out, nil
	}
}

// notColPred complements the kid's selection over the input rows.
func notColPred(kid ColPred) ColPred {
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		var scratch []int32
		res, err := kid(b, sel, scratch)
		if err != nil {
			return out, err
		}
		j := 0
		n := b.N
		if sel != nil {
			n = len(sel)
		}
		for pos := 0; pos < n; pos++ {
			row := int32(pos)
			if sel != nil {
				row = sel[pos]
			}
			if j < len(res) && res[j] == row {
				j++
				continue
			}
			out = append(out, row)
		}
		return out, nil
	}
}

// sortSel insertion-sorts a small selection slice in place (OR results
// are nearly sorted already: each kid's block is ascending).
func sortSel(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// compileColCmp builds the tight-loop form for the common comparison
// shapes, or nil when the shape needs the interpreted fallback.
func compileColCmp(c Cmp) ColPred {
	if lc, ok := c.L.(Col); ok {
		if rc, ok := c.R.(Col); ok {
			return colColColPred(c.Op, lc.Idx, rc.Idx)
		}
		if k, ok := c.R.(Const); ok && k.Val.Typ == storage.Int4 {
			return colConstColPred(c.Op, lc.Idx, k.Val.Int, false)
		}
	}
	if k, ok := c.L.(Const); ok && k.Val.Typ == storage.Int4 {
		if rc, ok := c.R.(Col); ok {
			return colConstColPred(swapOp(c.Op), rc.Idx, k.Val.Int, true)
		}
	}
	return nil
}

// checkInt4Col validates a column reference once per batch, mirroring
// the interpreter's per-tuple errors. constLeft says the constant was
// written on the left, which orders the types in a mismatch message.
func checkInt4Col(b *storage.ColBatch, idx int, constLeft bool) error {
	if idx < 0 || idx >= len(b.Vecs) {
		return fmt.Errorf("expr: column %d out of range (tuple has %d)", idx, len(b.Vecs))
	}
	if typ := b.Vecs[idx].Typ; typ != storage.Int4 {
		if constLeft {
			return fmt.Errorf("expr: comparing %v with %v", storage.Int4, typ)
		}
		return fmt.Errorf("expr: comparing %v with %v", typ, storage.Int4)
	}
	return nil
}

// int4Range maps "col OP k" onto an unsigned range test: a value v
// passes when (uint32(v-lo) <= span) differs from neg. Subtracting lo
// and comparing unsigned folds both bounds of a signed range into one
// comparison; NE is the negated point range, and a comparison no value
// can pass (x < MinInt32, x > MaxInt32) is the negated full range. ok
// is false for an unknown operator.
func int4Range(op CmpOp, k int32) (lo int32, span uint32, neg int, ok bool) {
	switch op {
	case EQ:
		return k, 0, 0, true
	case NE:
		return k, 0, 1, true
	case LT:
		if k == math.MinInt32 {
			return math.MinInt32, math.MaxUint32, 1, true
		}
		return math.MinInt32, uint32(k-1) + 1<<31, 0, true
	case LE:
		return math.MinInt32, uint32(k) + 1<<31, 0, true
	case GT:
		if k == math.MaxInt32 {
			return math.MinInt32, math.MaxUint32, 1, true
		}
		return k + 1, uint32(math.MaxInt32) - uint32(k+1), 0, true
	case GE:
		return k, uint32(math.MaxInt32) - uint32(k), 0, true
	default:
		return 0, 0, 0, false
	}
}

// b2i converts a comparison result to 0 or 1 without a branch (the
// compiler lowers it to a flag-setting instruction).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selGrow extends out by n writable slots for a branch-free selection
// loop, which writes every candidate row index and advances only past
// those that pass: the loop body has no data-dependent branch, so a
// 50%-selective predicate on shuffled keys costs no mispredictions.
func selGrow(out []int32, n int) (base, buf []int32) {
	out = slices.Grow(out, n)
	return out, out[len(out) : len(out)+n]
}

func colConstColPred(op CmpOp, idx int, k int32, constLeft bool) ColPred {
	lo, span, neg, known := int4Range(op, k)
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		if b.N == 0 && sel == nil || sel != nil && len(sel) == 0 {
			return out, nil
		}
		if err := checkInt4Col(b, idx, constLeft); err != nil {
			return out, err
		}
		if !known {
			return out, fmt.Errorf("expr: unknown comparison %v", op)
		}
		col := b.Vecs[idx].Ints
		j := 0
		if sel == nil {
			var buf []int32
			out, buf = selGrow(out, len(col))
			for i, v := range col {
				buf[j] = int32(i)
				j += b2i(uint32(v-lo) <= span) ^ neg
			}
		} else {
			var buf []int32
			out, buf = selGrow(out, len(sel))
			for _, r := range sel {
				buf[j] = r
				j += b2i(uint32(col[r]-lo) <= span) ^ neg
			}
		}
		return out[:len(out)+j], nil
	}
}

// cmpMask encodes which three-way comparison outcomes satisfy op: bit 0
// for less, bit 1 for equal, bit 2 for greater. ok is false for an
// unknown operator.
func cmpMask(op CmpOp) (mask int, ok bool) {
	switch op {
	case EQ:
		return 0b010, true
	case NE:
		return 0b101, true
	case LT:
		return 0b001, true
	case LE:
		return 0b011, true
	case GT:
		return 0b100, true
	case GE:
		return 0b110, true
	default:
		return 0, false
	}
}

func colColColPred(op CmpOp, li, ri int) ColPred {
	mask, known := cmpMask(op)
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		if b.N == 0 && sel == nil || sel != nil && len(sel) == 0 {
			return out, nil
		}
		if li < 0 || li >= len(b.Vecs) {
			return out, fmt.Errorf("expr: column %d out of range (tuple has %d)", li, len(b.Vecs))
		}
		if ri < 0 || ri >= len(b.Vecs) {
			return out, fmt.Errorf("expr: column %d out of range (tuple has %d)", ri, len(b.Vecs))
		}
		l, r := &b.Vecs[li], &b.Vecs[ri]
		if l.Typ != r.Typ {
			return out, fmt.Errorf("expr: comparing %v with %v", l.Typ, r.Typ)
		}
		if !known {
			return out, fmt.Errorf("expr: unknown comparison %v", op)
		}
		n := b.N
		if sel != nil {
			n = len(sel)
		}
		// holds maps a three-way comparison (-1, 0, 1) to 0 or 1.
		holds := func(cmp int) int { return mask >> (cmp + 1) & 1 }
		var buf []int32
		out, buf = selGrow(out, n)
		j := 0
		if l.Typ == storage.Int4 {
			lv, rv := l.Ints, r.Ints
			for pos := 0; pos < n; pos++ {
				row := int32(pos)
				if sel != nil {
					row = sel[pos]
				}
				buf[j] = row
				j += holds(b2i(lv[row] > rv[row]) - b2i(lv[row] < rv[row]))
			}
		} else {
			for pos := 0; pos < n; pos++ {
				row := int32(pos)
				if sel != nil {
					row = sel[pos]
				}
				buf[j] = row
				j += holds(bytes.Compare(l.Bytes(int(row)), r.Bytes(int(row))))
			}
		}
		return out[:len(out)+j], nil
	}
}

// swapOp mirrors an operator across its operands: const OP col becomes
// col swapOp(OP) const.
func swapOp(op CmpOp) CmpOp {
	switch op {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return op
	}
}

// interpColPred is the row-at-a-time fallback for shapes without a
// compiled form: each live row is materialized and fed to the
// interpreted evaluator. Correctness path only.
func interpColPred(e Expr) ColPred {
	return func(b *storage.ColBatch, sel []int32, out []int32) ([]int32, error) {
		n := b.N
		if sel != nil {
			n = len(sel)
		}
		vals := make([]storage.Value, 0, len(b.Vecs))
		for pos := 0; pos < n; pos++ {
			row := pos
			if sel != nil {
				row = int(sel[pos])
			}
			t := b.TupleTo(row, vals)
			vals = t.Vals
			ok, err := Qualifies(e, t)
			if err != nil {
				return out, err
			}
			if ok {
				out = append(out, int32(row))
			}
		}
		return out, nil
	}
}

// Int4KeysCols appends the int4 values of column col for every selected
// row (sel nil = all rows) to out. Batch key extraction for hash probes:
// the column is validated once here so the join's per-match loop runs
// without checks.
func Int4KeysCols(b *storage.ColBatch, col int, sel []int32, out []int32) ([]int32, error) {
	n := b.N
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return out, nil
	}
	if col < 0 || col >= len(b.Vecs) {
		return out, fmt.Errorf("expr: column %d out of range (tuple has %d)", col, len(b.Vecs))
	}
	ints := b.Vecs[col].Ints
	if sel == nil {
		return append(out, ints...), nil
	}
	for _, r := range sel {
		out = append(out, ints[r])
	}
	return out, nil
}
