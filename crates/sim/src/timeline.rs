//! ASCII rendering of execution timelines — the Jumpshot substitute for the
//! paper's Figures 5 and 6.

use ftbb_des::{SimTime, StateInterval};
use std::fmt::Write as _;

/// Map a state label to its timeline glyph.
fn glyph(state: &str) -> char {
    match state {
        "bb" => '█',
        "idle" => '·',
        "done" => '─',
        "crashed" => 'X',
        _ => '?',
    }
}

/// Render per-process timelines as an ASCII Gantt chart of `width` columns.
pub fn render(timelines: &[Vec<StateInterval>], end: SimTime, width: usize) -> String {
    assert!(width >= 10);
    let mut out = String::new();
    let total = end.as_secs_f64().max(1e-9);
    for (pid, intervals) in timelines.iter().enumerate() {
        let mut row = vec![' '; width];
        for iv in intervals {
            let a = ((iv.start.as_secs_f64() / total) * width as f64).floor() as usize;
            let b = ((iv.end.as_secs_f64() / total) * width as f64).ceil() as usize;
            let g = glyph(iv.state);
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = g;
            }
        }
        // A crash truncates the row visually.
        if let Some(crash) = intervals.iter().find(|iv| iv.state == "crashed") {
            let a = ((crash.start.as_secs_f64() / total) * width as f64).floor() as usize;
            for (i, cell) in row.iter_mut().enumerate().skip(a.min(width)) {
                *cell = if i == a { 'X' } else { ' ' };
            }
        }
        let _ = writeln!(out, "P{pid:<3} |{}|", row.iter().collect::<String>());
    }
    let _ = writeln!(
        out,
        "     0{}{}",
        " ".repeat(width.saturating_sub(6)),
        format_args!("{:.2}s", total)
    );
    let _ = writeln!(
        out,
        "     █ = B&B work   · = idle/starving   ─ = terminated   X = crashed"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64, state: &'static str) -> StateInterval {
        StateInterval {
            start: SimTime::from_secs(a),
            end: SimTime::from_secs(b),
            state,
        }
    }

    #[test]
    fn renders_rows_per_process() {
        let tl = vec![
            vec![iv(0, 5, "bb"), iv(5, 10, "idle")],
            vec![iv(0, 10, "bb")],
        ];
        let s = render(&tl, SimTime::from_secs(10), 20);
        assert!(s.contains("P0"));
        assert!(s.contains("P1"));
        assert!(s.contains('█'));
        assert!(s.contains('·'));
    }

    #[test]
    fn crash_truncates_row() {
        let tl = vec![vec![iv(0, 5, "bb"), iv(5, 10, "crashed")]];
        let s = render(&tl, SimTime::from_secs(10), 20);
        assert!(s.contains('X'));
        let row = s.lines().next().unwrap();
        // After the crash marker the row is blank.
        let after_x: String = row.chars().skip_while(|&c| c != 'X').skip(1).collect();
        assert!(!after_x.contains('█'));
    }
}
