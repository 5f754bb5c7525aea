//! Answer comparison: one canonical form for a query's answers, whether they
//! come from a `QueryResult` in this process or from a JSON response body.

use hilog_engine::QueryResult;
use serde_json::Value;

/// Sorted `"X=a,Y=b|true"` strings, one per answer, bindings by variable
/// name — independent of answer order and of binding order.
pub fn canon_result(result: &QueryResult) -> Vec<String> {
    let mut answers: Vec<String> = result
        .answers
        .iter()
        .map(|answer| {
            let mut bindings: Vec<String> = answer
                .bindings
                .iter()
                .map(|(var, term)| format!("{}={term}", var.name()))
                .collect();
            bindings.sort_unstable();
            format!("{}|{}", bindings.join(","), answer.truth)
        })
        .collect();
    answers.sort_unstable();
    answers
}

/// The same form from a `POST /query` response body (`None` when the body is
/// not a well-formed query response).
pub fn canon_response(body: &str) -> Option<Vec<String>> {
    let value = serde_json::from_str(body).ok()?;
    let answers = value.get("result")?.get("answers")?.as_array()?;
    let mut out = Vec::with_capacity(answers.len());
    for answer in answers {
        let truth = answer.get("truth").and_then(Value::as_str)?;
        // Object members are kept sorted by the JSON layer already.
        let bindings: Option<Vec<String>> = answer
            .get("bindings")?
            .as_object()?
            .iter()
            .map(|(name, term)| Some(format!("{name}={}", term.as_str()?)))
            .collect();
        out.push(format!("{}|{truth}", bindings?.join(",")));
    }
    out.sort_unstable();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilog_engine::HiLogDb;
    use hilog_server::api_types::QueryResponse;
    use hilog_syntax::{parse_program, parse_query};

    #[test]
    fn a_response_body_and_its_result_have_one_canonical_form() {
        let program = parse_program("move(a, b). move(a, c). move(b, c).").unwrap();
        let mut db = HiLogDb::new(program);
        let result = db.query(&parse_query("?- move(X, Y).").unwrap()).unwrap();
        let canon = canon_result(&result);
        assert_eq!(canon, ["X=a,Y=b|true", "X=a,Y=c|true", "X=b,Y=c|true"]);
        let body = serde_json::to_string(&QueryResponse { epoch: 0, result }).unwrap();
        assert_eq!(canon_response(&body), Some(canon));
        assert_eq!(canon_response("{\"error\":\"no\"}"), None);
    }
}
