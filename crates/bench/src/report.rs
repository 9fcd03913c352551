//! ASCII table rendering for experiment output.

/// Renders a table with a title, column headers and string rows.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let sep: String = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
    out.push_str(&sep);
    out.push('\n');
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!(" {:<width$} ", h, width = widths[i]))
        .collect();
    out.push_str(&header_line.join("|"));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect();
        out.push_str(&line.join("|"));
        out.push('\n');
    }
    out.push_str(&sep);
    out.push('\n');
    out
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "Demo",
            &["bench", "value"],
            &[vec!["rawcaudio".into(), "1.0".into()], vec!["fft".into(), "0.95".into()]],
        );
        assert!(t.contains("Demo"));
        assert!(t.contains("rawcaudio"));
        let lines: Vec<&str> = t.lines().collect();
        // header/sep/rows aligned to the same width.
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.956), "95.6%");
        assert_eq!(f3(1.23456), "1.235");
    }
}
