"""SVG rendering of clouds and barcodes."""

import math

import numpy as np
import pytest

from topoperiod import (
    EmptyArtifactError,
    PersistenceDiagram,
    PersistenceInterval,
    PointCloud,
    render_svg,
)


def _diagram() -> PersistenceDiagram:
    return PersistenceDiagram(
        (
            PersistenceInterval(0, 0.0, 1.0),
            PersistenceInterval(0, 0.0, math.inf),
            PersistenceInterval(1, 1.0, 1.4),
        )
    )


class TestBarcode:
    def test_one_bar_per_interval(self):
        svg = render_svg(_diagram())
        assert svg.count('class="bar"') == 3

    def test_dims_are_annotated(self):
        svg = render_svg(_diagram())
        assert svg.count('data-dim="0"') == 2
        assert svg.count('data-dim="1"') == 1

    def test_essential_bar_gets_arrow(self):
        svg = render_svg(_diagram())
        assert svg.count('data-essential="true"') == 1
        assert svg.count('class="inf-marker"') == 1

    def test_finite_only_diagram_has_no_arrow(self):
        svg = render_svg(
            PersistenceDiagram((PersistenceInterval(1, 0.2, 0.9),))
        )
        assert 'data-essential' not in svg
        assert 'inf-marker' not in svg

    def test_all_zero_diagram_gets_a_unit_axis(self):
        # Every birth is 0 and no death is finite, so the axis falls back
        # to [0, 1] instead of dividing by a zero span.
        svg = render_svg(PersistenceDiagram((PersistenceInterval(0, 0.0, math.inf),)))
        assert svg.count('class="bar"') == 1
        assert "nan" not in svg

    def test_empty_diagram_rejected(self):
        with pytest.raises(EmptyArtifactError):
            render_svg(PersistenceDiagram(()))

    def test_byte_determinism(self):
        a = render_svg(_diagram())
        b = render_svg(_diagram())
        assert a.encode() == b.encode()


class TestCloud:
    def test_one_marker_per_point(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 0.5], [2.0, -1.0]]))
        svg = render_svg(cloud)
        assert svg.count('class="pt"') == 3

    def test_one_dimensional_cloud(self):
        svg = render_svg(PointCloud(np.array([[0.0], [1.0], [2.0]])))
        assert svg.count('class="pt"') == 3

    def test_single_point_centered(self):
        svg = render_svg(PointCloud(np.array([[5.0, 5.0]])))
        assert svg.count('class="pt"') == 1
        assert 'cx="400.0000"' in svg

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyArtifactError):
            render_svg(PointCloud(np.empty((0, 2))))

    def test_byte_determinism(self):
        cloud = PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert render_svg(cloud).encode() == render_svg(cloud).encode()


class TestDispatch:
    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError):
            render_svg([1, 2, 3])

    def test_svg_structure(self):
        svg = render_svg(_diagram())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert 'data-kind="barcode"' in svg
        cloud_svg = render_svg(PointCloud(np.array([[0.0, 1.0]])))
        assert 'data-kind="point-cloud"' in cloud_svg

    def test_no_negative_zero_in_output(self):
        cloud = PointCloud(np.array([[-1.0, 0.0], [1.0, 0.0]]))
        assert "-0.0000" not in render_svg(cloud)
