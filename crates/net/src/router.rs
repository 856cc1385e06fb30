//! Exact-match request routing.

use crate::http::{Method, Request, Response, StatusCode};
use std::collections::HashMap;

/// A request handler.
pub type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// The route label of every request no route matches (a 404 or 405), so
/// that paths a client invents cannot add metric series.
pub(crate) const UNMATCHED_ROUTE: &str = "unmatched";

/// Routes requests to handlers by method and exact path (the query string,
/// if any, is ignored for matching and left on the request).
#[derive(Default)]
pub struct Router {
    /// Each path's handlers, indexed by [`method_slot`].
    routes: HashMap<String, [Option<Handler>; 2]>,
}

fn method_slot(method: Method) -> usize {
    match method {
        Method::Get => 0,
        Method::Post => 1,
    }
}

impl Router {
    /// An empty router: every request 404s.
    pub fn new() -> Self {
        Router::default()
    }

    /// Registers a handler. Re-registering a route replaces the handler.
    pub fn route(
        mut self,
        method: Method,
        path: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Self {
        self.routes.entry(path.to_owned()).or_default()[method_slot(method)] =
            Some(Box::new(handler));
        self
    }

    /// Dispatches a request: 404 for unknown paths, 405 when the path
    /// exists under a different method.
    pub fn dispatch(&self, req: &Request) -> Response {
        match self.resolve(req) {
            Ok((_, handler)) => handler(req),
            Err(refusal) => refusal,
        }
    }

    /// The handler `req` goes to and the path it was registered under,
    /// or the 404/405 that answers it.
    pub(crate) fn resolve(&self, req: &Request) -> Result<(&str, &Handler), Response> {
        let path = req.path.split('?').next().unwrap_or("");
        let Some((pattern, handlers)) = self.routes.get_key_value(path) else {
            return Err(Response::text(StatusCode::NOT_FOUND, "not found"));
        };
        match &handlers[method_slot(req.method)] {
            Some(handler) => Ok((pattern, handler)),
            None => Err(Response::text(
                StatusCode::METHOD_NOT_ALLOWED,
                "method not allowed",
            )),
        }
    }

    /// Number of registered routes.
    pub fn len(&self) -> usize {
        self.routes.values().flatten().flatten().count()
    }

    /// True if no routes are registered.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> Router {
        Router::new()
            .route(Method::Get, "/health", |_| {
                Response::text(StatusCode::OK, "ok")
            })
            .route(Method::Post, "/api/frame", |req| {
                Response::text(StatusCode::OK, format!("got {} bytes", req.body.len()))
            })
    }

    #[test]
    fn dispatch_matches_method_and_path() {
        let r = router();
        let resp = r.dispatch(&Request::get("/health"));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(&resp.body[..], b"ok");
    }

    #[test]
    fn query_string_ignored_for_matching() {
        let r = router();
        let resp = r.dispatch(&Request::get("/health?verbose=1"));
        assert_eq!(resp.status, StatusCode::OK);
    }

    #[test]
    fn unknown_path_404s() {
        let r = router();
        assert_eq!(
            r.dispatch(&Request::get("/nope")).status,
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn wrong_method_405s() {
        let r = router();
        let resp = r.dispatch(&Request::get("/api/frame"));
        assert_eq!(resp.status, StatusCode::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn resolve_names_the_registered_path() {
        let r = router();
        let (route, _) = r
            .resolve(&Request::get("/health?verbose=1"))
            .unwrap_or_else(|_| panic!("/health resolves"));
        assert_eq!(route, "/health");
        let refusal = r.resolve(&Request::get("/api/frame")).err();
        assert_eq!(
            refusal.map(|r| r.status),
            Some(StatusCode::METHOD_NOT_ALLOWED)
        );
    }

    #[test]
    fn len_and_replace() {
        let r = router().route(Method::Get, "/health", |_| {
            Response::text(StatusCode::OK, "replaced")
        });
        assert_eq!(r.len(), 2);
        assert_eq!(&r.dispatch(&Request::get("/health")).body[..], b"replaced");
    }
}
