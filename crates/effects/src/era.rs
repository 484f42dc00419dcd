//! The Extended Recency Abstraction (ERA) lattice.
//!
//! Each abstract object carries one of four ERA values with respect to the
//! designated loop `l` (paper Section 2):
//!
//! * `0̂` ([`Era::Outside`]) — created outside `l`;
//! * `ĉ` ([`Era::Current`]) — iteration-local: every instance dies before
//!   its creating iteration finishes;
//! * `f̂` ([`Era::Future`]) — instances may escape their creating
//!   iteration, and if they do, they may flow back into a later iteration;
//! * `⊤̂` ([`Era::Top`]) — instances may escape and will *not* flow back:
//!   the leak signature.
//!
//! The inside values form the chain `ĉ ⊑ f̂ ⊑ ⊤̂`; `0̂` never joins with
//! inside values in well-formed states (an allocation site is either
//! inside or outside the loop for a given inlining path), but the join is
//! total and conservatively yields `⊤̂` when they meet.

use std::fmt;

/// An ERA lattice value. See the module docs.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Era {
    /// `0̂` — created outside the designated loop.
    Outside,
    /// `ĉ` — iteration-local.
    #[default]
    Current,
    /// `f̂` — escapes but flows back into a later iteration.
    Future,
    /// `⊤̂` — escapes and never flows back.
    Top,
}

impl Era {
    /// The lattice join (`⊔` of Figure 6).
    pub fn join(self, other: Era) -> Era {
        use Era::*;
        match (self, other) {
            (a, b) if a == b => a,
            // 0̂ meeting an inside value is conservatively ⊤̂.
            (Outside, _) | (_, Outside) => Top,
            (Top, _) | (_, Top) => Top,
            (Future, _) | (_, Future) => Future,
            (Current, Current) => Current,
        }
    }

    /// The iteration-boundary aging operator (`⊕ 1` of rule TWhile):
    /// inside objects surviving into a new iteration are no longer
    /// "current"; until a load proves they flow back they are `⊤̂`.
    pub fn age(self) -> Era {
        match self {
            Era::Outside => Era::Outside,
            Era::Current | Era::Future | Era::Top => Era::Top,
        }
    }

    /// Rule TLoad's flow-back refinement at the era level: observing an
    /// object through a base that persists across iterations proves the
    /// object can be used after the iteration that created it, so a
    /// persisting inside era becomes `f̂`. Everything else — `0̂` and the
    /// strictly iteration-local `ĉ` — is untouched. The operator is
    /// monotone on the inside chain and idempotent, and it never moves an era out of the
    /// escape chain (the result of a persisting inside era is still
    /// `⊒ f̂`), so replaying the same strong heap update never loses
    /// escape information.
    pub fn flow_back(self) -> Era {
        if self.is_inside() && self.persists() {
            Era::Future
        } else {
            self
        }
    }

    /// Returns `true` for the inside values `ĉ`, `f̂`, `⊤̂`.
    pub fn is_inside(self) -> bool {
        self != Era::Outside
    }

    /// Returns `true` when instances with this ERA may persist across
    /// iterations (anything but `ĉ`): loads through such a base may
    /// observe objects created in earlier iterations.
    pub fn persists(self) -> bool {
        self != Era::Current
    }

    /// Partial-order test: `self ⊑ other` in the inside chain.
    pub fn le(self, other: Era) -> bool {
        self.join(other) == other
    }
}

impl fmt::Display for Era {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Era::Outside => write!(f, "0"),
            Era::Current => write!(f, "c"),
            Era::Future => write!(f, "f"),
            Era::Top => write!(f, "T"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Era; 4] = [Era::Outside, Era::Current, Era::Future, Era::Top];

    #[test]
    fn join_table() {
        assert_eq!(Era::Current.join(Era::Future), Era::Future);
        assert_eq!(Era::Future.join(Era::Top), Era::Top);
        assert_eq!(Era::Current.join(Era::Top), Era::Top);
        assert_eq!(Era::Outside.join(Era::Outside), Era::Outside);
        assert_eq!(Era::Outside.join(Era::Current), Era::Top);
    }

    #[test]
    fn aging() {
        assert_eq!(Era::Current.age(), Era::Top);
        assert_eq!(Era::Future.age(), Era::Top);
        assert_eq!(Era::Top.age(), Era::Top);
        assert_eq!(Era::Outside.age(), Era::Outside);
    }

    #[test]
    fn flow_back_table() {
        assert_eq!(Era::Outside.flow_back(), Era::Outside);
        assert_eq!(Era::Current.flow_back(), Era::Current);
        assert_eq!(Era::Future.flow_back(), Era::Future);
        assert_eq!(Era::Top.flow_back(), Era::Future);
        for e in ALL {
            // Idempotent, and never leaves the escape chain.
            assert_eq!(e.flow_back().flow_back(), e.flow_back());
            assert_eq!(e.flow_back().persists(), e.persists());
            assert_eq!(e.flow_back().is_inside(), e.is_inside());
        }
    }

    #[test]
    fn predicates() {
        assert!(Era::Current.is_inside());
        assert!(!Era::Outside.is_inside());
        assert!(Era::Outside.persists());
        assert!(!Era::Current.persists());
        assert!(Era::Current.le(Era::Top));
        assert!(!Era::Top.le(Era::Current));
    }

    // The domain has four elements: check the lattice laws exhaustively.
    #[test]
    fn join_is_a_semilattice() {
        for a in ALL {
            assert_eq!(a.join(a), a, "idempotent at {a}");
            assert_eq!(a.join(Era::Top), Era::Top, "⊤ absorbs {a}");
            for b in ALL {
                assert_eq!(a.join(b), b.join(a), "commutative at {a},{b}");
                for c in ALL {
                    assert_eq!(
                        a.join(b).join(c),
                        a.join(b.join(c)),
                        "associative at {a},{b},{c}"
                    );
                }
            }
        }
    }

    #[test]
    fn aging_is_monotone_and_extensive() {
        for a in ALL {
            // extensive on the inside chain: x ⊑ age(x)
            if a != Era::Outside {
                assert!(a.le(a.age()), "age not extensive at {a}");
            }
            for b in ALL {
                // monotone: a ⊑ b ⟹ age(a) ⊑ age(b)
                if a.le(b) {
                    assert!(a.age().le(b.age()), "age not monotone at {a} ⊑ {b}");
                }
            }
        }
    }
}
