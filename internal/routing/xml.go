package routing

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"selfserv/internal/statechart"
)

// The paper stores routing tables as XML documents in plain files on each
// component service's host. This file defines that document format, both
// for a whole Plan (the deployer's working artifact) and for a single
// Table (what actually gets uploaded to one host).

type xmlPlan struct {
	XMLName xml.Name    `xml:"routingPlan"`
	Name    string      `xml:"composite,attr"`
	Version uint64      `xml:"version,attr,omitempty"`
	Inputs  []xmlParam  `xml:"input"`
	Outputs []xmlParam  `xml:"output"`
	Start   []xmlTarget `xml:"start>notify"`
	Finish  []xmlClause `xml:"finish>clause"`
	Tables  []xmlTable  `xml:"table"`
}

type xmlParam struct {
	Name string `xml:"name,attr"`
	Type string `xml:"type,attr,omitempty"`
}

type xmlTable struct {
	State     string       `xml:"state,attr"`
	Version   uint64       `xml:"version,attr,omitempty"`
	Service   string       `xml:"service,attr"`
	Operation string       `xml:"operation,attr"`
	Inputs    []xmlBinding `xml:"in"`
	Outputs   []xmlBinding `xml:"out"`
	Pre       []xmlClause  `xml:"preconditions>clause"`
	Post      []xmlTarget  `xml:"postprocessings>notify"`
}

type xmlBinding struct {
	Param string `xml:"param,attr"`
	Var   string `xml:"var,attr,omitempty"`
	Expr  string `xml:"expr,attr,omitempty"`
}

type xmlClause struct {
	Sources   string      `xml:"sources,attr"`
	Condition string      `xml:"condition,attr,omitempty"`
	Actions   []xmlAssign `xml:"assign"`
}

type xmlTarget struct {
	To        string      `xml:"to,attr"`
	Condition string      `xml:"condition,attr,omitempty"`
	Actions   []xmlAssign `xml:"assign"`
}

type xmlAssign struct {
	Var  string `xml:"var,attr"`
	Expr string `xml:"expr,attr"`
}

// MarshalPlan encodes a whole plan as an indented XML document.
func MarshalPlan(p *Plan) ([]byte, error) {
	doc := xmlPlan{Name: p.Composite, Version: p.Version}
	for _, prm := range p.Inputs {
		doc.Inputs = append(doc.Inputs, xmlParam(prm))
	}
	for _, prm := range p.Outputs {
		doc.Outputs = append(doc.Outputs, xmlParam(prm))
	}
	for _, t := range p.Start {
		doc.Start = append(doc.Start, toXMLTarget(t))
	}
	for _, c := range p.Finish {
		doc.Finish = append(doc.Finish, toXMLClause(c))
	}
	ids := sortedTableIDs(p)
	for _, id := range ids {
		doc.Tables = append(doc.Tables, toXMLTable(p.Tables[id]))
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("routing: marshal plan %q: %w", p.Composite, err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// UnmarshalPlan decodes a document produced by MarshalPlan.
func UnmarshalPlan(data []byte) (*Plan, error) {
	var doc xmlPlan
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("routing: unmarshal plan: %w", err)
	}
	p := &Plan{Composite: doc.Name, Version: doc.Version, Tables: map[string]*Table{}}
	for _, prm := range doc.Inputs {
		p.Inputs = append(p.Inputs, statechart.Param(prm))
	}
	for _, prm := range doc.Outputs {
		p.Outputs = append(p.Outputs, statechart.Param(prm))
	}
	for _, t := range doc.Start {
		p.Start = append(p.Start, fromXMLTarget(t))
	}
	for _, c := range doc.Finish {
		p.Finish = append(p.Finish, parseClause(c))
	}
	for _, xt := range doc.Tables {
		tbl := fromXMLTable(xt)
		if _, dup := p.Tables[tbl.State]; dup {
			return nil, fmt.Errorf("routing: duplicate table for state %q", tbl.State)
		}
		p.Tables[tbl.State] = tbl
	}
	return p, nil
}

// MarshalTable encodes a single state's routing table, the artifact the
// deployer uploads to one component service's host.
func MarshalTable(t *Table) ([]byte, error) {
	doc := toXMLTable(t)
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("routing: marshal table %q: %w", t.State, err)
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// UnmarshalTable decodes a document produced by MarshalTable.
func UnmarshalTable(data []byte) (*Table, error) {
	var doc xmlTable
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("routing: unmarshal table: %w", err)
	}
	return fromXMLTable(doc), nil
}

// ReadPlan decodes a plan document from r.
func ReadPlan(r io.Reader) (*Plan, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("routing: read plan: %w", err)
	}
	return UnmarshalPlan(data)
}

func toXMLTable(t *Table) xmlTable {
	xt := xmlTable{
		State:     t.State,
		Version:   t.Version,
		Service:   t.Service,
		Operation: t.Operation,
	}
	for _, b := range t.Inputs {
		xt.Inputs = append(xt.Inputs, xmlBinding(b))
	}
	for _, b := range t.Outputs {
		xt.Outputs = append(xt.Outputs, xmlBinding(b))
	}
	for _, c := range t.Preconditions {
		xt.Pre = append(xt.Pre, toXMLClause(c))
	}
	for _, tg := range t.Postprocessings {
		xt.Post = append(xt.Post, toXMLTarget(tg))
	}
	return xt
}

func fromXMLTable(xt xmlTable) *Table {
	t := &Table{
		State:     xt.State,
		Version:   xt.Version,
		Service:   xt.Service,
		Operation: xt.Operation,
	}
	for _, b := range xt.Inputs {
		t.Inputs = append(t.Inputs, statechart.Binding(b))
	}
	for _, b := range xt.Outputs {
		t.Outputs = append(t.Outputs, statechart.Binding(b))
	}
	for _, c := range xt.Pre {
		t.Preconditions = append(t.Preconditions, parseClause(c))
	}
	for _, tg := range xt.Post {
		t.Postprocessings = append(t.Postprocessings, fromXMLTarget(tg))
	}
	return t
}

func toXMLTarget(t Target) xmlTarget {
	xt := xmlTarget{To: t.To, Condition: t.Condition}
	for _, a := range t.Actions {
		xt.Actions = append(xt.Actions, xmlAssign(a))
	}
	return xt
}

func fromXMLTarget(xt xmlTarget) Target {
	t := Target{To: xt.To, Condition: xt.Condition}
	for _, a := range xt.Actions {
		t.Actions = append(t.Actions, statechart.Assignment(a))
	}
	return t
}

func toXMLClause(c Clause) xmlClause {
	xc := xmlClause{Sources: strings.Join(c.Sources, " "), Condition: c.Condition}
	for _, a := range c.Actions {
		xc.Actions = append(xc.Actions, xmlAssign(a))
	}
	return xc
}

func parseClause(c xmlClause) Clause {
	out := Clause{Condition: c.Condition}
	if strings.TrimSpace(c.Sources) != "" {
		out.Sources = strings.Fields(c.Sources)
	}
	for _, a := range c.Actions {
		out.Actions = append(out.Actions, statechart.Assignment(a))
	}
	return out
}

func sortedTableIDs(p *Plan) []string {
	ids := make([]string, 0, len(p.Tables))
	for id := range p.Tables {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
