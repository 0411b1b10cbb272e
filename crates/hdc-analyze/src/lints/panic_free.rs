//! `panic-free-hot-path`: the serving and durability hot paths must not
//! contain reachable panics in shipping code. A panic in the dispatcher
//! or the WAL flusher takes down the whole shard, so `unwrap`/`expect`
//! calls and `panic!`-family macros outside `#[cfg(test)]` regions are
//! deny findings. Sites whose panic-freedom rests on a real invariant
//! (e.g. fail-stop poisoning propagation) are allowlisted in
//! `analyze.allow` with the invariant written down.

use crate::diag::{Diagnostic, Level};
use crate::lints::is_method_call;
use crate::workspace::Workspace;

/// The hot-path files (workspace-relative). Request dispatch, the task
/// family's readout and trainer fold, wire decoding, WAL append/replay,
/// the byte codec every durable format reads through, group-commit
/// flushing, cluster fan-out, and the paged item store.
const HOT_PATH_FILES: &[&str] = &[
    "crates/hdc-serve/src/runtime.rs",
    "crates/hdc-serve/src/task.rs",
    "crates/hdc-serve/src/wire.rs",
    "crates/hdc-serve/src/cluster.rs",
    "crates/hdc-store/src/codec.rs",
    "crates/hdc-store/src/wal.rs",
    "crates/hdc-store/src/group_commit.rs",
    "crates/hdc-store/src/paged.rs",
];

/// Method calls that panic on the error/none path.
const PANICKY_METHODS: &[&str] = &["unwrap", "expect"];

/// Macros that panic unconditionally when reached.
const PANICKY_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs the lint over the hot-path files.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for rel in HOT_PATH_FILES {
        let Some(file) = ws.file(rel) else { continue };
        for (i, token) in file.tokens.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let finding = if PANICKY_METHODS.iter().any(|m| token.is_ident(m))
                && is_method_call(&file.tokens, i)
            {
                Some(format!(
                    "`.{}()` on a hot path; return `HdcError` instead \
                     (or allowlist with the invariant that makes it unreachable)",
                    token.text
                ))
            } else if PANICKY_MACROS.iter().any(|m| token.is_ident(m))
                && file.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                Some(format!(
                    "`{}!` on a hot path; panics here take down the shard",
                    token.text
                ))
            } else {
                None
            };
            if let Some(message) = finding {
                diags.push(Diagnostic {
                    lint: "panic-free-hot-path",
                    level: Level::Deny,
                    file: file.rel.clone(),
                    line: token.line,
                    message,
                });
            }
        }
    }
}
