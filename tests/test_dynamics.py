import pytest

from pitchpilot.blocks import PitchPlantParams
from pitchpilot.errors import DomainError


class TestPitchPlant:
    def test_validation(self):
        with pytest.raises(DomainError):
            PitchPlantParams(J_z=0)
        with pytest.raises(DomainError):
            PitchPlantParams(lam=-1.0)
