//! Translation of a validated parse tree into Schema-Free XQuery
//! (paper Secs. 3.2.2–3.2.4, Figures 4–8).
//!
//! The pipeline:
//!
//! 1. [`crate::binding::bind`] has grouped NTs into basic variables and
//!    variables into related sets.
//! 2. **Connection-marker rewriting** (Fig. 5): for the pattern
//!    `var1 + CM + (FT + var2)` ("the book **with** the lowest price") a
//!    fresh variable takes `var2`'s place next to `var1`, constrained to
//!    equal the aggregate over all of `var2`.
//! 3. **Grouping/nesting scope** for aggregates (Fig. 6): an aggregate
//!    over a non-core variable groups *per related core* — a fresh copy
//!    of the core iterates inside a `let`, value-joined to the outer
//!    core ("outer" scope, as in the paper's Fig. 8); an aggregate over
//!    a core variable (or with no relatable variable) pulls its whole
//!    related set inside the `let` ("inner" scope).
//! 4. **Quantifier scope** (Fig. 7): a universally quantified non-core,
//!    non-returned variable becomes `every $x in … satisfies (…)`.
//! 5. **Pattern mapping** (Fig. 4): operators, values and appositions
//!    become WHERE conditions; the command token's noun phrases become
//!    the RETURN clause; order-by tokens become ORDER BY.
//! 6. **MQF clauses**: one `mqf(…)` per related variable set with at
//!    least two members, inside the scope where those variables live.

use crate::binding::{bind, Binding, VarId};
use crate::semantics;
use crate::token::{ClassifiedTree, NodeClass, OpSem, QtKind, SortDir, TokenType};
use std::collections::HashMap;
use std::fmt;
use xquery::value::parse_finite;
use xquery::{AggFunc, Binding as XBinding, CmpOp, Expr, OrderDir, OrderKey};

/// Translation failure: the tree validated but uses a construct outside
/// the translator's coverage (reported to the user as feedback).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateError {
    /// User-facing description.
    pub message: String,
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot translate query: {}", self.message)
    }
}

impl std::error::Error for TranslateError {}

fn err(msg: impl Into<String>) -> TranslateError {
    TranslateError {
        message: msg.into(),
    }
}

/// A translated query plus introspection data (used by tests and the
/// explain output of the examples).
#[derive(Debug, Clone)]
pub struct Translation {
    /// The Schema-Free XQuery expression.
    pub query: Expr,
    /// `$variable name → element names` map for display.
    pub variables: Vec<(String, Vec<String>)>,
}

/// Scope of an aggregate's `let` (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Group per related core: fresh core copy + value join.
    Outer,
    /// The whole related set moves inside the `let`.
    Inner,
}

#[derive(Debug, Clone)]
struct WVar {
    names: Vec<String>,
    group: usize,
    /// The aggregate whose inner FLWOR hosts this variable.
    inner_of: Option<usize>,
    returned: bool,
    quant: Option<QtKind>,
    core: bool,
    /// Wrapped in a quantified expression rather than a `for`.
    quant_wrapped: bool,
}

#[derive(Debug, Clone)]
struct AggWork {
    func: AggFunc,
    arg: VarId,
    scope: Scope,
    core_copy: Option<VarId>,
    join_to: Option<VarId>,
    /// Set when the Fig. 5 connection-marker rewrite detached the
    /// argument: the aggregate then ranges over *all* bindings (solo
    /// scope), e.g. "the book with the lowest price".
    detached: bool,
}

#[derive(Debug, Clone)]
enum Operand {
    Var(VarId),
    Agg(usize),
    /// A constant with one or more alternatives — several when the
    /// query coordinates values disjunctively ("… is \"A\" or \"B\"").
    Const(Vec<String>),
}

#[derive(Debug, Clone)]
struct CondW {
    op: OpSem,
    neg: bool,
    lhs: Operand,
    rhs: Operand,
}

impl CondW {
    fn var_operands(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        for o in [&self.lhs, &self.rhs] {
            if let Operand::Var(v) = o {
                out.push(*v);
            }
        }
        out
    }

    fn has_agg(&self) -> bool {
        matches!(self.lhs, Operand::Agg(_)) || matches!(self.rhs, Operand::Agg(_))
    }
}

/// Translate a validated tree. The [`Binding`] is computed internally.
pub fn translate(tree: &ClassifiedTree) -> Result<Translation, TranslateError> {
    let binding = bind(tree);
    Translator::new(tree, binding).run()
}

struct Translator<'a> {
    tree: &'a ClassifiedTree,
    binding: Binding,
    vars: Vec<WVar>,
    aggs: Vec<AggWork>,
    conds: Vec<CondW>,
    /// FT node → aggregate index.
    agg_of_ft: HashMap<usize, usize>,
    /// variable → aggregate over it (at most one supported).
    agg_of_var: HashMap<VarId, usize>,
    next_group: usize,
    order_by: Vec<(Option<VarId>, SortDir)>,
    returns: Vec<Operand>,
}

impl<'a> Translator<'a> {
    fn new(tree: &'a ClassifiedTree, binding: Binding) -> Self {
        let mut group_of: HashMap<VarId, usize> = HashMap::new();
        for (gi, g) in binding.groups.iter().enumerate() {
            for &v in g {
                group_of.insert(v, gi);
            }
        }
        let vars: Vec<WVar> = binding
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| WVar {
                names: v.names.clone(),
                group: group_of.get(&i).copied().unwrap_or(usize::MAX),
                inner_of: None,
                returned: false,
                quant: None,
                core: v.core,
                quant_wrapped: false,
            })
            .collect();
        let next_group = binding.groups.len();
        Translator {
            tree,
            binding,
            vars,
            aggs: Vec::new(),
            conds: Vec::new(),
            agg_of_ft: HashMap::new(),
            agg_of_var: HashMap::new(),
            next_group,
            order_by: Vec::new(),
            returns: Vec::new(),
        }
    }

    fn var_of(&self, nt: usize) -> Result<VarId, TranslateError> {
        self.binding
            .var_of
            .get(&nt)
            .copied()
            .ok_or_else(|| err(format!("internal: NT {nt} has no variable")))
    }

    fn fresh_var(&mut self, names: Vec<String>, group: usize) -> VarId {
        self.vars.push(WVar {
            names,
            group,
            inner_of: None,
            returned: false,
            quant: None,
            core: false,
            quant_wrapped: false,
        });
        self.vars.len() - 1
    }

    fn fresh_group(&mut self) -> usize {
        let g = self.next_group;
        self.next_group += 1;
        g
    }

    fn run(mut self) -> Result<Translation, TranslateError> {
        self.collect_returns_and_order()?;
        self.collect_aggregates()?;
        self.collect_quantifiers();
        self.collect_conditions()?;
        self.scope_aggregates()?;
        self.wrap_quantifiers();
        self.emit()
    }

    // ------------------------------------------------------------------
    // RETURN and ORDER BY (Fig. 4, last two rules)
    // ------------------------------------------------------------------

    fn collect_returns_and_order(&mut self) -> Result<(), TranslateError> {
        let root = self.tree.root;
        let mut pending: Vec<usize> = self.tree.node(root).children.clone();
        while let Some(c) = pending.pop() {
            let n = self.tree.node(c);
            match n.class {
                NodeClass::Token(TokenType::Nt) => {
                    let v = self.var_of(c)?;
                    self.vars[v].returned = true;
                    self.returns.push(Operand::Var(v));
                    // Conjoined noun phrases are returned too
                    // (RNP → RNP ∧ RNP).
                    for &k in &n.children {
                        if self.tree.node(k).class.is_nt() {
                            pending.push(k);
                        }
                    }
                }
                NodeClass::Token(TokenType::Ft(_)) => {
                    // "Return the total number of …" — resolved to the
                    // aggregate after collect_aggregates; remember the FT.
                    self.returns.push(Operand::Agg(usize::MAX - c));
                }
                NodeClass::Token(TokenType::Obt(dir)) => {
                    let key_nt = n
                        .children
                        .iter()
                        .copied()
                        .find(|&k| self.tree.node(k).class.is_nt());
                    let var = match key_nt {
                        Some(nt) => Some(self.var_of(nt)?),
                        None => None,
                    };
                    self.order_by.push((var, dir));
                }
                _ => {}
            }
        }
        // Sentence order for deterministic output.
        self.returns.sort_by_key(|op| match op {
            Operand::Var(v) => self
                .binding
                .vars
                .get(*v)
                .and_then(|vi| vi.nodes.first())
                .map(|&n| self.tree.node(n).order)
                .unwrap_or(usize::MAX),
            Operand::Agg(tag) => self.tree.node(usize::MAX - *tag).order,
            Operand::Const(_) => usize::MAX,
        });
        if self.returns.is_empty() {
            return Err(err("the query does not say what to return"));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Aggregates (FT tokens) and the Fig. 5 connection-marker rewrite
    // ------------------------------------------------------------------

    fn collect_aggregates(&mut self) -> Result<(), TranslateError> {
        let fts: Vec<usize> = self
            .tree
            .refs()
            .filter(|&r| self.tree.node(r).class.ft().is_some())
            .collect();
        for ft in fts {
            let Some(func) = self.tree.node(ft).class.ft() else {
                continue; // filtered on ft() above
            };
            let target = semantics::attaches_to(self.tree, ft)
                .ok_or_else(|| err("an aggregate function has nothing to apply to"))?;
            if !self.tree.node(target).class.is_nt() {
                return Err(err(
                    "nested aggregate functions are not supported; please simplify",
                ));
            }
            let arg = self.var_of(target)?;
            if self.agg_of_var.contains_key(&arg) {
                return Err(err(
                    "two aggregate functions apply to the same item; please split the query",
                ));
            }
            let k = self.aggs.len();
            self.aggs.push(AggWork {
                func,
                arg,
                scope: Scope::Inner, // decided later
                core_copy: None,
                join_to: None,
                detached: false,
            });
            self.agg_of_ft.insert(ft, k);
            self.agg_of_var.insert(arg, k);

            // --- Fig. 5: var1 + CM + cmpvar ("book with the lowest
            // price"). Detect: the argument NT hangs below a connection
            // marker whose own parent is an NT that precedes it.
            let nt_node = target;
            if let Some(cm) = self.tree.node(nt_node).parent {
                let cm_is_marker = matches!(
                    self.tree.node(cm).class,
                    NodeClass::Marker(crate::token::MarkerType::Cm)
                );
                if cm_is_marker {
                    if let Some(u) = self.tree.node(cm).parent {
                        if self.tree.node(u).class.is_nt()
                            && self.tree.node(u).order < self.tree.node(nt_node).order
                            && !self.vars[arg].returned
                        {
                            let u_var = self.var_of(u)?;
                            // var2new joins var1's group…
                            let names = self.vars[arg].names.clone();
                            let group_u = self.vars[u_var].group;
                            let v2new = self.fresh_var(names, group_u);
                            // …var2 leaves it…
                            let g = self.fresh_group();
                            self.vars[arg].group = g;
                            // …constrained to equal the aggregate.
                            self.conds.push(CondW {
                                op: OpSem::Eq,
                                neg: false,
                                lhs: Operand::Var(v2new),
                                rhs: Operand::Agg(k),
                            });
                            self.aggs[k].detached = true;
                        }
                    }
                }
            }
        }
        // Resolve the return-FT placeholders now that aggregates exist,
        // and convert returned variables that carry an aggregate.
        for op in &mut self.returns {
            match op {
                Operand::Agg(tag) if *tag > self.aggs.len() => {
                    let ft = usize::MAX - *tag;
                    let k = self
                        .agg_of_ft
                        .get(&ft)
                        .copied()
                        .ok_or_else(|| err("internal: unresolved aggregate"))?;
                    *op = Operand::Agg(k);
                }
                Operand::Var(v) => {
                    if let Some(&k) = self.agg_of_var.get(v) {
                        self.vars[*v].returned = false;
                        *op = Operand::Agg(k);
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn collect_quantifiers(&mut self) {
        for r in self.tree.refs() {
            if let NodeClass::Token(TokenType::Qt(q)) = self.tree.node(r).class {
                if let Some(p) = self.tree.node(r).parent {
                    if self.tree.node(p).class.is_nt() {
                        if let Some(&v) = self.binding.var_of.get(&p) {
                            self.vars[v].quant = Some(q);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Conditions (Fig. 4 predicate patterns)
    // ------------------------------------------------------------------

    fn operand_for(&self, node: usize) -> Result<Operand, TranslateError> {
        let n = self.tree.node(node);
        match n.class {
            NodeClass::Token(TokenType::Nt) => {
                let v = self.var_of(node)?;
                if let Some(&k) = self.agg_of_var.get(&v) {
                    // Only when the FT is attached to *this* NT node does
                    // the operand denote the aggregate.
                    let has_ft_child = n
                        .children
                        .iter()
                        .any(|&c| self.tree.node(c).class.ft().is_some());
                    let ft_parent = n
                        .parent
                        .map(|p| self.tree.node(p).class.ft().is_some())
                        .unwrap_or(false);
                    if has_ft_child || ft_parent {
                        return Ok(Operand::Agg(k));
                    }
                }
                Ok(Operand::Var(v))
            }
            NodeClass::Token(TokenType::Ft(_)) => {
                let k = self
                    .agg_of_ft
                    .get(&node)
                    .copied()
                    .ok_or_else(|| err("internal: FT without aggregate"))?;
                Ok(Operand::Agg(k))
            }
            NodeClass::Token(TokenType::Vt) => {
                // Number words carry their digit form in the lemma
                // ("one" → "1"); quoted/proper values use the surface.
                // A disjunctive chain ("\"A\" or \"B\"") contributes all
                // its values as alternatives.
                let value_of = |k: usize| {
                    let kn = self.tree.node(k);
                    if parse_finite(&kn.lemma).is_some() {
                        kn.lemma.clone()
                    } else {
                        kn.words.clone()
                    }
                };
                let mut values = vec![value_of(node)];
                let mut cursor = node;
                loop {
                    let next = self.tree.node(cursor).children.iter().copied().find(|&c| {
                        self.tree.node(c).class.is_vt()
                            && self.tree.node(c).rel == nlparser::DepRel::ConjOr
                    });
                    match next {
                        Some(c) => {
                            values.push(value_of(c));
                            cursor = c;
                        }
                        None => break,
                    }
                }
                Ok(Operand::Const(values))
            }
            _ => Err(err(format!(
                "\"{}\" cannot be used as a comparison operand",
                n.words
            ))),
        }
    }

    fn collect_conditions(&mut self) -> Result<(), TranslateError> {
        // --- Operator tokens.
        let ots: Vec<usize> = self
            .tree
            .refs()
            .filter(|&r| self.tree.node(r).class.ot().is_some())
            .collect();
        for ot in ots {
            let Some(op) = self.tree.node(ot).class.ot() else {
                continue; // filtered on ot() above
            };
            let neg = self
                .tree
                .node(ot)
                .children
                .iter()
                .any(|&c| matches!(self.tree.node(c).class, NodeClass::Token(TokenType::Neg)));
            let mut operands: Vec<usize> = self
                .tree
                .node(ot)
                .children
                .iter()
                .copied()
                .filter(|&c| {
                    matches!(
                        self.tree.node(c).class,
                        NodeClass::Token(TokenType::Nt | TokenType::Vt | TokenType::Ft(_))
                    )
                })
                .collect();
            operands.sort_by_key(|&c| self.tree.node(c).order);
            match operands.len() {
                2 => {
                    let lhs = self.operand_for(operands[0])?;
                    let rhs = self.operand_for(operands[1])?;
                    self.conds.push(CondW { op, neg, lhs, rhs });
                }
                1 => {
                    // Operand pair = (token parent, child) — unless the
                    // child is an implicit NT, whose own NT+VT pattern
                    // yields the condition below.
                    if self.tree.node(operands[0]).implicit {
                        continue;
                    }
                    let parent = self.tree.parent_skipping_markers(ot);
                    let Some(p) = parent else { continue };
                    if !matches!(
                        self.tree.node(p).class,
                        NodeClass::Token(TokenType::Nt | TokenType::Vt | TokenType::Ft(_))
                    ) {
                        continue;
                    }
                    let lhs = self.operand_for(p)?;
                    let rhs = self.operand_for(operands[0])?;
                    self.conds.push(CondW { op, neg, lhs, rhs });
                }
                _ => {}
            }
        }

        // --- NT with a VT child: apposition ("director Ron Howard") and
        // implicit NTs. The operator is inherited from an OT parent when
        // there is one ("[year] 1991" under "after"), else equality.
        for r in self.tree.refs() {
            let n = self.tree.node(r);
            if !n.class.is_nt() {
                continue;
            }
            let Some(vt) = n
                .children
                .iter()
                .copied()
                .find(|&c| self.tree.node(c).class.is_vt())
            else {
                continue;
            };
            let parent_ot = n
                .parent
                .and_then(|p| self.tree.node(p).class.ot().map(|o| (p, o)));
            let (op, neg) = match parent_ot {
                Some((p, o)) => {
                    let neg = self.tree.node(p).children.iter().any(|&c| {
                        matches!(self.tree.node(c).class, NodeClass::Token(TokenType::Neg))
                    });
                    (o, neg)
                }
                None => (OpSem::Eq, false),
            };
            let v = self.var_of(r)?;
            let rhs = self.operand_for(vt)?;
            self.conds.push(CondW {
                op,
                neg,
                lhs: Operand::Var(v),
                rhs,
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Aggregate scope (Fig. 6)
    // ------------------------------------------------------------------

    fn scope_aggregates(&mut self) -> Result<(), TranslateError> {
        for k in 0..self.aggs.len() {
            let arg = self.aggs[k].arg;
            if self.aggs[k].detached {
                // Fig. 5 already isolated the argument: solo scope.
                self.aggs[k].scope = Scope::Inner;
                self.vars[arg].inner_of = Some(k);
                continue;
            }
            if self.vars[arg].core {
                // Inner scope: the whole related set moves inside.
                self.aggs[k].scope = Scope::Inner;
                let g = self.vars[arg].group;
                for v in 0..self.vars.len() {
                    if self.vars[v].group == g {
                        self.vars[v].inner_of = Some(k);
                    }
                }
                continue;
            }
            // Find the grouping partner: a core in the same related set,
            // else a directly-related variable, else any related
            // variable.
            let g = self.vars[arg].group;
            let core = (0..self.vars.len())
                .find(|&v| v != arg && self.vars[v].group == g && self.vars[v].core)
                .or_else(|| {
                    // directly-related variable
                    let arg_nodes = &self.binding.vars[arg].nodes;
                    self.binding
                        .semantics
                        .directly_related
                        .iter()
                        .find_map(|&(a, b)| {
                            if arg_nodes.contains(&a) {
                                self.binding.var_of.get(&b).copied().filter(|&v| v != arg)
                            } else if arg_nodes.contains(&b) {
                                self.binding.var_of.get(&a).copied().filter(|&v| v != arg)
                            } else {
                                None
                            }
                        })
                })
                .or_else(|| (0..self.vars.len()).find(|&v| v != arg && self.vars[v].group == g));
            match core {
                Some(c) if self.vars[c].inner_of.is_none() => {
                    // Outer scope (paper Fig. 8): fresh copy of the core
                    // iterates inside, value-joined to the outer core.
                    let names = self.vars[c].names.clone();
                    let g2 = self.fresh_group();
                    let copy = self.fresh_var(names, g2);
                    self.vars[copy].inner_of = Some(k);
                    self.vars[arg].group = g2;
                    self.vars[arg].inner_of = Some(k);
                    self.aggs[k].scope = Scope::Outer;
                    self.aggs[k].core_copy = Some(copy);
                    self.aggs[k].join_to = Some(c);
                }
                _ => {
                    // Solo grouping: aggregate over all bindings.
                    self.aggs[k].scope = Scope::Inner;
                    self.vars[arg].inner_of = Some(k);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Quantifier scope (Fig. 7), simplified to the supported pattern
    // ------------------------------------------------------------------

    fn wrap_quantifiers(&mut self) {
        for v in 0..self.vars.len() {
            if self.vars[v].quant != Some(QtKind::Every) {
                continue;
            }
            if self.vars[v].returned || self.vars[v].core || self.vars[v].inner_of.is_some() {
                continue;
            }
            // Only wrap when the variable participates in a value
            // condition — otherwise universal quantification over an
            // existential join is a no-op.
            let has_cond = self
                .conds
                .iter()
                .any(|c| c.var_operands().contains(&v) && !c.has_agg());
            if has_cond {
                self.vars[v].quant_wrapped = true;
            }
        }
    }

    // ------------------------------------------------------------------
    // Emission
    // ------------------------------------------------------------------

    fn var_name(&self, v: VarId) -> String {
        format!("v{}", v + 1)
    }

    fn let_name(&self, k: usize) -> String {
        format!("vars{}", k + 1)
    }

    fn var_source(&self, v: VarId) -> Expr {
        Expr::doc_descendant_any(self.vars[v].names.clone())
    }

    /// Each operand expands to one expression per alternative (only
    /// disjunctive constants have more than one).
    fn operand_exprs(&self, op: &Operand) -> Vec<Expr> {
        match op {
            Operand::Var(v) => vec![Expr::var(self.var_name(*v))],
            Operand::Agg(k) => vec![Expr::Agg {
                func: self.aggs[*k].func,
                arg: Box::new(Expr::var(self.let_name(*k))),
            }],
            Operand::Const(values) => values
                .iter()
                .map(|c| match parse_finite(c) {
                    Some(n) => Expr::Num(n),
                    None => Expr::Str(c.clone()),
                })
                .collect(),
        }
    }

    fn operand_expr(&self, op: &Operand) -> Expr {
        // Every operand carries at least one alternative by
        // construction; an empty one degrades to the empty string.
        self.operand_exprs(op)
            .into_iter()
            .next()
            .unwrap_or_else(|| Expr::Str(String::new()))
    }

    fn cond_expr(&self, c: &CondW) -> Expr {
        let lhs_alts = self.operand_exprs(&c.lhs);
        let rhs_alts = self.operand_exprs(&c.rhs);
        let mut parts = Vec::with_capacity(lhs_alts.len() * rhs_alts.len());
        for lhs in &lhs_alts {
            for rhs in &rhs_alts {
                let part = match c.op.cmp_op() {
                    Some(op) => Expr::cmp(op, lhs.clone(), rhs.clone()),
                    None => {
                        let name = match c.op {
                            OpSem::Contains => "contains",
                            OpSem::StartsWith => "starts-with",
                            OpSem::EndsWith => "ends-with",
                            // cmp_op() is None only for the string
                            // operators above; a new operator without
                            // a cmp_op falls back to equality.
                            _ => {
                                parts.push(Expr::cmp(CmpOp::Eq, lhs.clone(), rhs.clone()));
                                continue;
                            }
                        };
                        Expr::Call {
                            name: name.into(),
                            args: vec![lhs.clone(), rhs.clone()],
                        }
                    }
                };
                parts.push(part);
            }
        }
        let base = match parts.pop() {
            Some(only) if parts.is_empty() => only,
            Some(last) => {
                parts.push(last);
                Expr::Or(parts)
            }
            None => Expr::Or(parts),
        };
        if c.neg {
            Expr::Not(Box::new(base))
        } else {
            base
        }
    }

    /// The mqf clauses for a set of variables, grouped by group id.
    fn mqf_clauses(&self, vars: &[VarId]) -> Vec<Expr> {
        let mut by_group: HashMap<usize, Vec<VarId>> = HashMap::new();
        for &v in vars {
            by_group.entry(self.vars[v].group).or_default().push(v);
        }
        let mut groups: Vec<_> = by_group.into_iter().collect();
        groups.sort();
        groups
            .into_iter()
            .filter(|(_, vs)| vs.len() >= 2)
            .map(|(_, mut vs)| {
                vs.sort();
                Expr::Mqf(vs.iter().map(|&v| Expr::var(self.var_name(v))).collect())
            })
            .collect()
    }

    fn emit(self) -> Result<Translation, TranslateError> {
        // Partition conditions: a condition is inner to aggregate `k`
        // when all its variable operands live inside `k` and it has no
        // aggregate operand.
        let mut inner_conds: HashMap<usize, Vec<&CondW>> = HashMap::new();
        let mut quant_conds: HashMap<VarId, Vec<&CondW>> = HashMap::new();
        let mut outer_conds: Vec<&CondW> = Vec::new();
        for c in &self.conds {
            let vars = c.var_operands();
            if !c.has_agg() && !vars.is_empty() {
                let inner_k: Vec<Option<usize>> =
                    vars.iter().map(|&v| self.vars[v].inner_of).collect();
                if let Some(Some(k)) = inner_k.first() {
                    if inner_k.iter().all(|x| *x == Some(*k)) {
                        inner_conds.entry(*k).or_default().push(c);
                        continue;
                    }
                }
                if let Some(&qv) = vars.iter().find(|&&v| self.vars[v].quant_wrapped) {
                    quant_conds.entry(qv).or_default().push(c);
                    continue;
                }
            }
            outer_conds.push(c);
        }

        // Outer for-clauses.
        let outer_vars: Vec<VarId> = (0..self.vars.len())
            .filter(|&v| self.vars[v].inner_of.is_none() && !self.vars[v].quant_wrapped)
            .collect();
        let mut bindings: Vec<XBinding> = outer_vars
            .iter()
            .map(|&v| XBinding::For {
                var: self.var_name(v),
                source: self.var_source(v),
            })
            .collect();

        // Aggregate lets.
        for (k, agg) in self.aggs.iter().enumerate() {
            let inner_vars: Vec<VarId> = (0..self.vars.len())
                .filter(|&v| self.vars[v].inner_of == Some(k))
                .collect();
            let inner_bindings: Vec<XBinding> = inner_vars
                .iter()
                .map(|&v| XBinding::For {
                    var: self.var_name(v),
                    source: self.var_source(v),
                })
                .collect();
            let mut where_parts: Vec<Expr> = self.mqf_clauses(&inner_vars);
            if let (Some(copy), Some(join)) = (agg.core_copy, agg.join_to) {
                where_parts.push(Expr::cmp(
                    CmpOp::Eq,
                    Expr::var(self.var_name(copy)),
                    Expr::var(self.var_name(join)),
                ));
            }
            for c in inner_conds.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
                where_parts.push(self.cond_expr(c));
            }
            let where_clause = match where_parts.pop() {
                Some(only) if where_parts.is_empty() => Some(Box::new(only)),
                Some(last) => {
                    where_parts.push(last);
                    Some(Box::new(Expr::And(where_parts)))
                }
                None => None,
            };
            let inner = Expr::Flwor {
                bindings: inner_bindings,
                where_clause,
                order_by: vec![],
                ret: Box::new(Expr::var(self.var_name(agg.arg))),
            };
            bindings.push(XBinding::Let {
                var: self.let_name(k),
                value: inner,
            });
        }

        // Outer WHERE: mqf per group + conditions + quantified blocks.
        let mut where_parts: Vec<Expr> = self.mqf_clauses(&outer_vars);
        for c in outer_conds {
            where_parts.push(self.cond_expr(c));
        }
        for (qv, conds) in {
            let mut qs: Vec<_> = quant_conds.into_iter().collect();
            qs.sort_by_key(|(v, _)| *v);
            qs
        } {
            // every $q in doc()//names satisfies
            //   (not(mqf($q, partners)) or (conds))
            let partners: Vec<VarId> = outer_vars
                .iter()
                .copied()
                .filter(|&v| self.vars[v].group == self.vars[qv].group)
                .collect();
            let mut cond_parts: Vec<Expr> = conds.iter().map(|c| self.cond_expr(c)).collect();
            let conds_expr = match cond_parts.pop() {
                Some(only) if cond_parts.is_empty() => only,
                Some(last) => {
                    cond_parts.push(last);
                    Expr::And(cond_parts)
                }
                None => Expr::And(cond_parts),
            };
            let satisfies = if partners.is_empty() {
                conds_expr
            } else {
                let mut mqf_args = vec![Expr::var(self.var_name(qv))];
                mqf_args.extend(partners.iter().map(|&p| Expr::var(self.var_name(p))));
                Expr::Or(vec![Expr::Not(Box::new(Expr::Mqf(mqf_args))), conds_expr])
            };
            where_parts.push(Expr::Quantified {
                quant: xquery::Quantifier::Every,
                var: self.var_name(qv),
                source: Box::new(self.var_source(qv)),
                satisfies: Box::new(satisfies),
            });
        }
        let where_clause = match where_parts.pop() {
            Some(only) if where_parts.is_empty() => Some(Box::new(only)),
            Some(last) => {
                where_parts.push(last);
                Some(Box::new(Expr::And(where_parts)))
            }
            None => None,
        };

        // ORDER BY.
        let order_by: Vec<OrderKey> = self
            .order_by
            .iter()
            .map(|(v, dir)| {
                let key_var = v.or_else(|| match self.returns.first() {
                    Some(Operand::Var(rv)) => Some(*rv),
                    _ => None,
                });
                let expr = match key_var {
                    Some(kv) => Expr::var(self.var_name(kv)),
                    None => Expr::Str(String::new()),
                };
                OrderKey {
                    expr,
                    dir: match dir {
                        SortDir::Asc => OrderDir::Ascending,
                        SortDir::Desc => OrderDir::Descending,
                    },
                }
            })
            .collect();

        // RETURN.
        let mut ret_exprs: Vec<Expr> = self
            .returns
            .iter()
            .map(|op| self.operand_expr(op))
            .collect();
        let ret = match ret_exprs.pop() {
            Some(only) if ret_exprs.is_empty() => only,
            Some(last) => {
                ret_exprs.push(last);
                Expr::Element {
                    name: "result".into(),
                    content: ret_exprs,
                }
            }
            None => Expr::Element {
                name: "result".into(),
                content: ret_exprs,
            },
        };

        let variables: Vec<(String, Vec<String>)> = (0..self.vars.len())
            .map(|v| (self.var_name(v), self.vars[v].names.clone()))
            .collect();

        Ok(Translation {
            query: Expr::Flwor {
                bindings,
                where_clause,
                order_by,
                ret: Box::new(ret),
            },
            variables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::classify::classify;
    use crate::validate::validate;
    use nlparser::parse;
    use xmldb::Document;
    use xquery::{pretty::pretty, Engine};

    fn translate_on(doc: &Document, q: &str) -> Translation {
        let catalog = Catalog::build(doc);
        let v = validate(classify(&parse(q).unwrap()), &catalog);
        assert!(v.is_valid(), "{q}: {:?}", v.feedback);
        translate(&v.tree).unwrap_or_else(|e| panic!("{q}: {e}\n{}", v.tree.outline()))
    }

    fn run_query(doc: &Document, q: &str) -> Vec<String> {
        let t = translate_on(doc, q);
        let engine = Engine::new(doc.clone());
        let out = engine
            .eval_expr(&t.query)
            .unwrap_or_else(|e| panic!("{q}: {e}\n{}", pretty(&t.query)));
        engine.strings(&out)
    }

    #[test]
    fn query2_full_pipeline_matches_paper() {
        // End-to-end: Query 2 ("as many movies as Ron Howard") against
        // Figure 1 data returns Ron Howard and Steven Soderbergh.
        let doc = xmldb::datasets::movies::movies();
        let mut out = run_query(
            &doc,
            "Return every director, where the number of movies directed by the \
             director is the same as the number of movies directed by Ron Howard.",
        );
        out.sort();
        out.dedup();
        assert_eq!(out, vec!["Ron Howard", "Steven Soderbergh"]);
    }

    #[test]
    fn query2_translation_shape_matches_figure9() {
        let doc = xmldb::datasets::movies::movies();
        let t = translate_on(
            &doc,
            "Return every director, where the number of movies directed by the \
             director is the same as the number of movies directed by Ron Howard.",
        );
        let text = pretty(&t.query);
        // two director for-clauses at the outer level, two lets with
        // movie+director inside, a count comparison, the value join and
        // the constant condition (paper Figure 9).
        assert!(text.contains("let $vars1 := {"), "{text}");
        assert!(text.contains("let $vars2 := {"), "{text}");
        assert!(text.contains("count($vars1) = count($vars2)"), "{text}");
        assert!(text.contains("= \"Ron Howard\""), "{text}");
        assert!(text.contains("mqf("), "{text}");
    }

    #[test]
    fn query3_value_join() {
        let doc = xmldb::datasets::movies::movies_and_books();
        let mut out = run_query(
            &doc,
            "Return the directors of movies, where the title of each movie is \
             the same as the title of a book.",
        );
        out.sort();
        out.dedup();
        assert_eq!(out, vec!["Steven Soderbergh"]);
    }

    #[test]
    fn lowest_price_for_each_book_groups_per_book() {
        // Paper Sec. 3.2.3: "for the first query, the scope of min() is
        // within each book".
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>A</title><price>10</price><price>20</price></book>\
             <book><title>B</title><price>30</price><price>40</price></book>\
             </bib>",
        )
        .unwrap();
        let mut out = run_query(&doc, "Return the lowest price for each book.");
        out.sort();
        assert_eq!(out, vec!["10", "30"]);
    }

    #[test]
    fn book_with_the_lowest_price_is_global() {
        // "…but for the second query, the scope of min() is among all
        // the books."
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>A</title><price>10</price></book>\
             <book><title>B</title><price>30</price></book>\
             </bib>",
        )
        .unwrap();
        let out = run_query(&doc, "Return the book with the lowest price.");
        assert_eq!(out.len(), 1);
        assert!(out[0].contains('A'), "{out:?}");
    }

    #[test]
    fn total_number_with_condition_nests_inner() {
        let doc = xmldb::datasets::movies::movies();
        let out = run_query(
            &doc,
            "Return the total number of movies, where the director of each movie \
             is Ron Howard.",
        );
        // Ron Howard appears as two director nodes with that value; each
        // yields the same count of 2.
        assert!(!out.is_empty());
        assert!(out.iter().all(|x| x == "2"), "{out:?}");
    }

    #[test]
    fn movies_directed_by_ron_howard() {
        let doc = xmldb::datasets::movies::movies();
        let mut out = run_query(&doc, "Find all the movies directed by Ron Howard.");
        out.sort();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("A Beautiful Mind"));
        assert!(out[1].contains("How the Grinch Stole Christmas"));
    }

    #[test]
    fn apposition_form_gives_same_result() {
        let doc = xmldb::datasets::movies::movies();
        let out = run_query(&doc, "Find all the movies directed by director Ron Howard.");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn schema_free_title_lookup() {
        let doc = xmldb::datasets::movies::movies();
        let out = run_query(
            &doc,
            "Return the director of the movie, where the title of the movie is \"Traffic\".",
        );
        assert_eq!(out, vec!["Steven Soderbergh"]);
    }

    #[test]
    fn order_by_emits_sorted_results() {
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>Zebra</title></book>\
             <book><title>Apple</title></book>\
             <book><title>Mango</title></book>\
             </bib>",
        )
        .unwrap();
        let out = run_query(&doc, "Return the title of every book, sorted by title.");
        assert_eq!(out, vec!["Apple", "Mango", "Zebra"]);
    }

    #[test]
    fn contains_condition() {
        let doc = xmldb::Document::parse_str(
            "<bib><book><title>XML Handbook</title></book>\
             <book><title>Rust in Action</title></book></bib>",
        )
        .unwrap();
        let out = run_query(&doc, "Find all titles that contain \"XML\".");
        assert_eq!(out, vec!["XML Handbook"]);
    }

    #[test]
    fn negated_condition() {
        let doc = xmldb::Document::parse_str(
            "<bib><book><title>A</title><publisher>Springer</publisher></book>\
             <book><title>B</title><publisher>MIT Press</publisher></book></bib>",
        )
        .unwrap();
        let out = run_query(
            &doc,
            "Return the title of each book, where the publisher of the book is not \"Springer\".",
        );
        assert_eq!(out, vec!["B"]);
    }

    #[test]
    fn multiple_returns_wrap_in_result_element() {
        let doc = xmldb::Document::parse_str(
            "<bib><book><title>T</title><author>A</author></book></bib>",
        )
        .unwrap();
        let t = translate_on(&doc, "Return the title and the authors of every book.");
        match &t.query {
            Expr::Flwor { ret, .. } => {
                assert!(matches!(**ret, Expr::Element { .. }));
            }
            other => panic!("{other:?}"),
        }
        let out = run_query(&doc, "Return the title and the authors of every book.");
        assert_eq!(out, vec!["TA"]);
    }

    #[test]
    fn at_least_count_condition() {
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>Solo</title><author>X</author></book>\
             <book><title>None</title></book>\
             <book><title>Duo</title><author>Y</author><author>Z</author></book>\
             </bib>",
        )
        .unwrap();
        let out = run_query(
            &doc,
            "Return the title of every book, where the number of authors of the \
             book is at least 1.",
        );
        // one row per (book, author-set) — Duo returned once, Solo once
        let mut dedup = out.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup, vec!["Duo", "Solo"]);
    }

    #[test]
    fn published_after_year() {
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>Old</title><publisher>Addison-Wesley</publisher><year>1984</year></book>\
             <book><title>New</title><publisher>Addison-Wesley</publisher><year>1994</year></book>\
             <book><title>Other</title><publisher>Springer</publisher><year>2000</year></book>\
             </bib>",
        )
        .unwrap();
        let mut out = run_query(
            &doc,
            "Return the title of every book published by Addison-Wesley after 1991.",
        );
        out.sort();
        out.dedup();
        assert_eq!(out, vec!["New"]);
    }

    #[test]
    fn thesaurus_backed_query() {
        let doc = xmldb::datasets::movies::movies();
        let out = run_query(
            &doc,
            "Return the director of the film, where the title of the film is \"Tribute\".",
        );
        assert_eq!(out, vec!["Steven Soderbergh"]);
    }

    #[test]
    fn min_year_per_title() {
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>PDB</title><year>1980</year></book>\
             <book><title>PDB</title><year>1988</year></book>\
             <book><title>OSC</title><year>1991</year></book>\
             </bib>",
        )
        .unwrap();
        let mut out = run_query(&doc, "Return the lowest year for each title.");
        out.sort();
        out.dedup();
        assert_eq!(out, vec!["1980", "1991"]);
    }

    #[test]
    fn disjunctive_values() {
        // Paper Sec. 7 lists disjunction as future work; this
        // reproduction supports value disjunction.
        let doc = xmldb::Document::parse_str(
            "<bib>\
             <book><title>A</title><publisher>Springer</publisher></book>\
             <book><title>B</title><publisher>MIT Press</publisher></book>\
             <book><title>C</title><publisher>Elsevier</publisher></book>\
             </bib>",
        )
        .unwrap();
        let mut out = run_query(
            &doc,
            "Return the title of each book, where the publisher of the book is \
             \"Springer\" or \"MIT Press\".",
        );
        out.sort();
        assert_eq!(out, vec!["A", "B"]);
    }

    #[test]
    fn disjunctive_values_via_participle() {
        let doc = xmldb::datasets::movies::movies();
        let mut out = run_query(
            &doc,
            "Find all the movies directed by \"Ron Howard\" or \"Peter Jackson\".",
        );
        out.sort();
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn disjunctive_name_tokens_merge_variables() {
        let doc = xmldb::datasets::dblp::generate(&xmldb::datasets::dblp::DblpConfig::small());
        let t = translate_on(&doc, "Return the title of every book or article.");
        // one variable over both names
        assert!(
            t.variables
                .iter()
                .any(|(_, names)| names.contains(&"book".to_owned())
                    && names.contains(&"article".to_owned())),
            "{:?}",
            t.variables
        );
        let engine = Engine::new(doc.clone());
        let out = engine.eval_expr(&t.query).unwrap();
        // titles of all books AND articles
        assert_eq!(out.len(), doc.nodes_labeled("title").len());
    }

    #[test]
    fn variables_are_reported() {
        let doc = xmldb::datasets::movies::movies();
        let t = translate_on(&doc, "Return the director of each movie.");
        assert!(t
            .variables
            .iter()
            .any(|(_, names)| names == &vec!["director".to_owned()]));
    }
}
